package hypergraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, queries [][]Vertex) *Graph {
	t.Helper()
	g, err := FromQueries(n, queries)
	if err != nil {
		t.Fatalf("FromQueries: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 5, nil)
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.NumPins() != 0 {
		t.Errorf("NumPins = %d, want 0", g.NumPins())
	}
	if g.MeanEdgeSize() != 0 {
		t.Errorf("MeanEdgeSize = %v, want 0", g.MeanEdgeSize())
	}
	for v := Vertex(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestEdgeMembersSortedAndDeduped(t *testing.T) {
	g := mustGraph(t, 10, [][]Vertex{{3, 1, 3, 2, 1}})
	got := g.Edge(0)
	want := []Vertex{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edge(0) = %v, want %v", got, want)
	}
	if g.EdgeSize(0) != 3 {
		t.Errorf("EdgeSize(0) = %d, want 3", g.EdgeSize(0))
	}
}

func TestVertexOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge([]Vertex{0, 3}); err == nil {
		t.Fatal("AddEdge with out-of-range member: got nil error")
	}
	// The failed edge must not have been recorded.
	if err := b.AddEdge([]Vertex{0, 1}); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.NumPins() != 2 {
		t.Errorf("NumPins = %d, want 2", g.NumPins())
	}
}

func TestIncidence(t *testing.T) {
	g := mustGraph(t, 4, [][]Vertex{
		{0, 1},
		{1, 2},
		{0, 1, 2, 3},
	})
	cases := []struct {
		v    Vertex
		want []EdgeID
	}{
		{0, []EdgeID{0, 2}},
		{1, []EdgeID{0, 1, 2}},
		{2, []EdgeID{1, 2}},
		{3, []EdgeID{2}},
	}
	for _, c := range cases {
		if got := g.IncidentEdges(c.v); !reflect.DeepEqual(got, c.want) {
			t.Errorf("IncidentEdges(%d) = %v, want %v", c.v, got, c.want)
		}
		if g.Degree(c.v) != len(c.want) {
			t.Errorf("Degree(%d) = %d, want %d", c.v, g.Degree(c.v), len(c.want))
		}
	}
}

func TestConnectivity(t *testing.T) {
	g := mustGraph(t, 6, [][]Vertex{
		{0, 1, 2},
		{3},
		{0, 5},
		{},
	})
	assign := []int32{0, 0, 1, 1, 2, 2}
	lam := g.Connectivities(assign)
	for e, want := range []int32{2, 1, 2, 0} { // the last edge is empty
		if lam[e] != want {
			t.Errorf("λ(edge%d) = %d, want %d", e, lam[e], want)
		}
	}
	if got := g.TotalConnectivity(assign); got != 5 {
		t.Errorf("TotalConnectivity = %d, want 5", got)
	}
}

// TestConnectivityLargeEdge covers an edge spanning many buckets, with
// bucket ids that do not start at zero.
func TestConnectivityLargeEdge(t *testing.T) {
	const n = 40
	members := make([]Vertex, n)
	assign := make([]int32, n)
	for i := range members {
		members[i] = Vertex(i)
		assign[i] = int32(i/2) - 7 // 20 distinct buckets
	}
	g := mustGraph(t, n, [][]Vertex{members})
	if got := g.Connectivities(assign)[0]; got != 20 {
		t.Errorf("Connectivity = %d, want 20", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := mustGraph(t, 5, [][]Vertex{
		{0, 1, 2, 3},
		{0, 1},
		{0},
	})
	s := g.ComputeStats()
	if s.NumVertices != 5 || s.NumEdges != 3 || s.NumPins != 7 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxEdgeSize != 4 {
		t.Errorf("MaxEdgeSize = %d, want 4", s.MaxEdgeSize)
	}
	if s.MaxDegree != 3 {
		t.Errorf("MaxDegree = %d, want 3", s.MaxDegree)
	}
	if want := 7.0 / 3.0; s.MeanEdgeSize != want {
		t.Errorf("MeanEdgeSize = %v, want %v", s.MeanEdgeSize, want)
	}
}

// Property: for random graphs, incidence is the exact transpose of edge
// membership, and Σ degree == Σ edge size == NumPins.
func TestIncidenceTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		nEdges := rng.Intn(60)
		queries := make([][]Vertex, nEdges)
		for i := range queries {
			l := rng.Intn(8)
			q := make([]Vertex, l)
			for j := range q {
				q[j] = Vertex(rng.Intn(n))
			}
			queries[i] = q
		}
		g, err := FromQueries(n, queries)
		if err != nil {
			return false
		}
		pins := 0
		for e := 0; e < g.NumEdges(); e++ {
			pins += g.EdgeSize(EdgeID(e))
			for _, v := range g.Edge(EdgeID(e)) {
				found := false
				for _, ie := range g.IncidentEdges(v) {
					if ie == EdgeID(e) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(Vertex(v))
		}
		return pins == g.NumPins() && degSum == g.NumPins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: each edge's connectivity is its count of distinct buckets,
// between 1 and min(edge size, #buckets) for non-empty edges, and
// TotalConnectivity is the sum of per-edge values.
func TestConnectivityBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		nBuckets := 1 + rng.Intn(8)
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(nBuckets))
		}
		nEdges := 1 + rng.Intn(30)
		queries := make([][]Vertex, nEdges)
		for i := range queries {
			l := 1 + rng.Intn(40)
			q := make([]Vertex, l)
			for j := range q {
				q[j] = Vertex(rng.Intn(n))
			}
			queries[i] = q
		}
		g, err := FromQueries(n, queries)
		if err != nil {
			return false
		}
		var sum int64
		for e, lam := range g.Connectivities(assign) {
			buckets := map[int32]bool{}
			for _, v := range g.Edge(EdgeID(e)) {
				buckets[assign[v]] = true
			}
			size := g.EdgeSize(EdgeID(e))
			if int(lam) != len(buckets) || lam < 1 || int(lam) > size || int(lam) > nBuckets {
				return false
			}
			sum += int64(lam)
		}
		return sum == g.TotalConnectivity(assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
