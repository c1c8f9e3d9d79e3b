package hypergraph

// CoOccurrence counts, for a base vertex, how often every other vertex
// appears in the same hyperedge as the base. It is the primitive behind
// replica-cluster construction (§5.3 step 4) and FPR cluster refill (§5.2).
// A CoOccurrence is not safe for concurrent use.
type CoOccurrence struct {
	g *Graph
	// counts is dense over the vertices and zero between calls; touched
	// lists the entries a call raised, which is all it must reset.
	counts  []int32
	touched []Vertex
	// inSet marks TopForSet's members: inSet[v] == epoch while v is one.
	inSet []uint32
	epoch uint32
	keys  []uint64 // rank keys, reused across calls
}

// NewCoOccurrence returns a counter bound to g.
func NewCoOccurrence(g *Graph) *CoOccurrence {
	return &CoOccurrence{g: g, counts: make([]int32, g.NumVertices())}
}

// Top returns up to n vertices that co-occur most frequently with base,
// excluding base itself and any vertex for which exclude returns true
// (exclude may be nil). Ties break toward the lower vertex id so results
// are deterministic. exclude is consulted in rank order, only until n
// vertices are found, so it must not depend on which vertices it has
// already been asked about. The returned slice is freshly allocated.
func (c *CoOccurrence) Top(base Vertex, n int, exclude func(Vertex) bool) []Vertex {
	if n <= 0 {
		return nil
	}
	for _, e := range c.g.IncidentEdges(base) {
		for _, v := range c.g.Edge(e) {
			if v != base {
				c.count(v)
			}
		}
	}
	return c.rank(n, exclude)
}

// TopForSet returns up to n vertices co-occurring most frequently with any
// member of the given set, excluding set members themselves and vertices
// for which exclude returns true, under the same ranking and exclude
// contract as Top. Used by FPR to refill a finer cluster with the most
// co-appearing outside vertices.
func (c *CoOccurrence) TopForSet(set []Vertex, n int, exclude func(Vertex) bool) []Vertex {
	if n <= 0 {
		return nil
	}
	if c.inSet == nil {
		c.inSet = make([]uint32, len(c.counts))
	}
	if c.epoch++; c.epoch == 0 { // wrapped: stale marks would match
		clear(c.inSet)
		c.epoch = 1
	}
	for _, v := range set {
		c.inSet[v] = c.epoch
	}
	for _, base := range set {
		for _, e := range c.g.IncidentEdges(base) {
			for _, v := range c.g.Edge(e) {
				if c.inSet[v] != c.epoch {
					c.count(v)
				}
			}
		}
	}
	return c.rank(n, exclude)
}

func (c *CoOccurrence) count(v Vertex) {
	if c.counts[v] == 0 {
		c.touched = append(c.touched, v)
	}
	c.counts[v]++
}

// rank orders the touched vertices by count descending, then id
// ascending, as one packed key each (^count in the high word, the id in
// the low), resets their counts, and returns the first n not excluded.
// Usually only the head of that order is read, so the keys are heaped and
// popped rather than sorted.
func (c *CoOccurrence) rank(n int, exclude func(Vertex) bool) []Vertex {
	h := RankHeap(c.keys[:0])
	for _, v := range c.touched {
		h = append(h, uint64(^uint32(c.counts[v]))<<32|uint64(v))
		c.counts[v] = 0
	}
	c.touched = c.touched[:0]
	c.keys = h
	h.Init()
	out := make([]Vertex, 0, min(n, len(h)))
	for len(h) > 0 && len(out) < n {
		if v := Vertex(h.Pop()); exclude == nil || !exclude(v) {
			out = append(out, v)
		}
	}
	return out
}

// RankHeap is a binary min-heap of packed rank keys. It hands out the
// smallest keys of a large set in ascending order for the cost of one
// linear heapify plus a logarithmic pop each, where a caller that reads
// only a short head would otherwise sort the whole set.
type RankHeap []uint64

// Init heapifies h in place.
func (h RankHeap) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Pop removes and returns the smallest key. h must not be empty.
func (h *RankHeap) Pop() uint64 {
	old := *h
	top := old[0]
	old[0] = old[len(old)-1]
	*h = old[:len(old)-1]
	h.down(0)
	return top
}

func (h RankHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
