package shp

import (
	"math/rand"
	"reflect"
	"testing"

	"maxembed/internal/hypergraph"
	"maxembed/internal/workload"
)

func buildGraph(t *testing.T, n int, queries [][]hypergraph.Vertex) *hypergraph.Graph {
	t.Helper()
	g, err := hypergraph.FromQueries(n, queries)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkBalanced asserts every vertex is assigned a valid bucket and no
// bucket exceeds capacity.
func checkBalanced(t *testing.T, res *Result, n int) {
	t.Helper()
	if len(res.Assign) != n {
		t.Fatalf("Assign len = %d, want %d", len(res.Assign), n)
	}
	sizes := make([]int, res.NumBuckets)
	for v, b := range res.Assign {
		if b < 0 || int(b) >= res.NumBuckets {
			t.Fatalf("vertex %d assigned invalid bucket %d", v, b)
		}
		sizes[b]++
	}
	for b, s := range sizes {
		if s > res.Capacity {
			t.Fatalf("bucket %d holds %d > capacity %d", b, s, res.Capacity)
		}
	}
}

func TestPartitionSmallClusters(t *testing.T) {
	// Two obvious communities of 4 vertices each; capacity 4 should
	// recover them exactly (connectivity 1 per edge).
	queries := [][]hypergraph.Vertex{
		{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 2}, {1, 3},
		{4, 5, 6, 7}, {4, 5, 6, 7}, {4, 6}, {5, 7},
	}
	g := buildGraph(t, 8, queries)
	res, err := Partition(g, Options{Capacity: 4, Seed: 1, MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	checkBalanced(t, res, 8)
	if res.FinalConnectivity != int64(len(queries)) {
		t.Errorf("FinalConnectivity = %d, want %d (perfect recovery)",
			res.FinalConnectivity, len(queries))
	}
}

func TestPartitionImprovesConnectivity(t *testing.T) {
	p := workload.Profile{
		Name: "t", Items: 2000, Queries: 3000, MeanQueryLen: 8,
		Communities: 100, CommunityAffinity: 0.85, ZipfS: 1.2, Seed: 9,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Options{Capacity: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkBalanced(t, res, tr.NumItems)
	if res.FinalConnectivity >= res.InitialConnectivity {
		t.Errorf("no improvement: initial %d, final %d",
			res.InitialConnectivity, res.FinalConnectivity)
	}
	// The refinement should beat random by a solid margin on a strongly
	// clustered workload.
	if float64(res.FinalConnectivity) > 0.9*float64(res.InitialConnectivity) {
		t.Errorf("improvement below 10%%: initial %d, final %d",
			res.InitialConnectivity, res.FinalConnectivity)
	}
	// And beat the vanilla (sequential) placement, which is Bandana's
	// baseline comparison.
	vanilla := make([]int32, tr.NumItems)
	for v := range vanilla {
		vanilla[v] = int32(v / 16)
	}
	if res.FinalConnectivity >= g.TotalConnectivity(vanilla) {
		t.Errorf("SHP (%d) did not beat vanilla (%d)",
			res.FinalConnectivity, g.TotalConnectivity(vanilla))
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := buildGraph(t, 100, randomQueries(100, 200, 5, 17))
	a, err := Partition(g, Options{Capacity: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Options{Capacity: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Assign, b.Assign) {
		t.Error("same seed produced different partitions")
	}
}

func randomQueries(n, m, maxLen int, seed int64) [][]hypergraph.Vertex {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]hypergraph.Vertex, m)
	for i := range qs {
		l := 1 + rng.Intn(maxLen)
		q := make([]hypergraph.Vertex, l)
		for j := range q {
			q[j] = hypergraph.Vertex(rng.Intn(n))
		}
		qs[i] = q
	}
	return qs
}

func TestPartitionOptionValidation(t *testing.T) {
	g := buildGraph(t, 10, nil)
	if _, err := Partition(g, Options{}); err == nil {
		t.Error("Partition accepted empty options")
	}
	if _, err := Partition(g, Options{Capacity: 2, NumBuckets: 2}); err == nil {
		t.Error("Partition accepted buckets×capacity < n")
	}
}

func TestPartitionExplicitBuckets(t *testing.T) {
	// FPR-style finer partition: more buckets than ceil(N/d), derived
	// capacity.
	g := buildGraph(t, 20, randomQueries(20, 40, 4, 3))
	res, err := Partition(g, Options{NumBuckets: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBuckets != 10 || res.Capacity != 2 {
		t.Errorf("buckets=%d capacity=%d, want 10/2", res.NumBuckets, res.Capacity)
	}
	checkBalanced(t, res, 20)
}

func TestPartitionEdgeCases(t *testing.T) {
	// Empty graph.
	g := buildGraph(t, 0, nil)
	res, err := Partition(g, Options{Capacity: 4, Seed: 1})
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if len(res.Assign) != 0 {
		t.Errorf("Assign len = %d", len(res.Assign))
	}

	// Single vertex.
	g = buildGraph(t, 1, [][]hypergraph.Vertex{{0}})
	res, err = Partition(g, Options{Capacity: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkBalanced(t, res, 1)

	// Capacity larger than N: one bucket.
	g = buildGraph(t, 5, [][]hypergraph.Vertex{{0, 1}, {2, 3, 4}})
	res, err = Partition(g, Options{Capacity: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBuckets != 1 {
		t.Errorf("NumBuckets = %d, want 1", res.NumBuckets)
	}
	if res.FinalConnectivity != 2 {
		t.Errorf("FinalConnectivity = %d, want 2", res.FinalConnectivity)
	}

	// Graph with no edges: any balanced assignment is optimal.
	g = buildGraph(t, 16, nil)
	res, err = Partition(g, Options{Capacity: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkBalanced(t, res, 16)
	if res.FinalConnectivity != 0 {
		t.Errorf("FinalConnectivity = %d, want 0", res.FinalConnectivity)
	}
}

// Property: balance holds for random graphs and seeds, and refinement never
// worsens total connectivity.
func TestPartitionRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(300)
		cap := 1 + rng.Intn(16)
		g := buildGraph(t, n, randomQueries(n, rng.Intn(200), 6, rng.Int63()))
		res, err := Partition(g, Options{Capacity: cap, Seed: rng.Int63(), MaxIters: 6})
		if err != nil {
			t.Fatal(err)
		}
		checkBalanced(t, res, n)
		if res.FinalConnectivity > res.InitialConnectivity {
			t.Errorf("trial %d: connectivity worsened %d → %d",
				trial, res.InitialConnectivity, res.FinalConnectivity)
		}
	}
}

// TestParallelMatchesSerial checks that sibling forks and the gain-pass
// fan-out change nothing: 40k vertices at capacity 15 keep subproblems
// above minForkVerts for the first five bisection levels, so forks happen
// at several depths and compete with the fan-out for tokens.
func TestParallelMatchesSerial(t *testing.T) {
	p := workload.Profile{
		Name: "t", Items: 40_000, Queries: 20_000, MeanQueryLen: 10,
		Communities: 3_000, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 13,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Partition(g, Options{Capacity: 15, Seed: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		parallel, err := Partition(g, Options{Capacity: 15, Seed: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Assign, parallel.Assign) {
			t.Errorf("parallelism %d: partition differs from serial", par)
		}
		if serial.Iterations != parallel.Iterations || serial.Moves != parallel.Moves {
			t.Errorf("parallelism %d: %d iterations / %d moves, serial %d / %d", par,
				parallel.Iterations, parallel.Moves, serial.Iterations, serial.Moves)
		}
		if serial.FinalConnectivity != parallel.FinalConnectivity {
			t.Errorf("parallelism %d: connectivity %d, serial %d",
				par, parallel.FinalConnectivity, serial.FinalConnectivity)
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	p := workload.Criteo.Scaled(0.05)
	tr, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, Options{Capacity: 15, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
