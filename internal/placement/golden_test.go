package placement

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/workload"
)

// goldenCase is one benchmark deployment: the history half of a profile's
// default-seed trace, placed with MaxEmbed at r = 0.2 over a striped
// array of the given width, 64-dim embeddings on 4 KiB pages.
type goldenCase struct {
	name    string
	profile workload.Profile
	scale   float64
	shards  int
	sha256  string // of layout.Encode
}

var goldenCases = []goldenCase{
	{"criteo-0.1-1shard", workload.Criteo, 0.1, 1,
		"95bd5747736df8cdd9efea23d7f87d52c4cf5c9686d5f9b4502d8ed6a69e76b5"},
	{"ifashion-0.3-4shards", workload.AlibabaIFashion, 0.3, 4,
		"6c0e59cf0753cb8eb94607aa15a2473cab96f371389555af56c535f2397d15bb"},
	{"m2-1-4shards", workload.AmazonM2, 1, 4,
		"3db519448518b3b5e42c4b55b807c70cfb4ec2d567944e8237b9da246bf0aae9"},
}

func goldenGraph(tb testing.TB, p workload.Profile, scale float64) *hypergraph.Graph {
	tb.Helper()
	tr, err := workload.Generate(p.Scaled(scale))
	if err != nil {
		tb.Fatal(err)
	}
	hist, _ := tr.Split(0.5)
	g, err := hypergraph.FromQueries(hist.NumItems, hist.Queries)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func goldenOptions(shards int) Options {
	return Options{
		Capacity:         embedding.PageCapacity(4096, 64),
		ReplicationRatio: 0.2,
		Seed:             1,
		Shards:           shards,
	}
}

// TestBuildGolden pins the exact bytes MaxEmbed placement produces on the
// benchmark histories, so speed work on the partitioner and the replica
// ranking cannot change a layout unnoticed.
func TestBuildGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			g := goldenGraph(t, tc.profile, tc.scale)
			lay, err := Build(StrategyMaxEmbed, g, goldenOptions(tc.shards))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := lay.Encode(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
				t.Errorf("layout sha256 = %s, want %s", got, tc.sha256)
			}
		})
	}
}

// BenchmarkPlacementBuild times the offline phase a server runs at start:
// SHP partitioning plus connectivity-priority replication of the
// Criteo ×0.1 history.
func BenchmarkPlacementBuild(b *testing.B) {
	g := goldenGraph(b, workload.Criteo, 0.1)
	opts := goldenOptions(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(StrategyMaxEmbed, g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
