// Package shp implements a Social Hash Partitioner (SHP) in the style of
// Kabiljo et al. (VLDB'17), the hypergraph partitioning algorithm Bandana
// uses to co-locate co-appearing embeddings on SSD pages and the base of
// MaxEmbed's offline phase (§2.2, §5).
//
// Following the original, partitioning is recursive bisection: each
// subproblem splits its vertices into two balanced sides, refined by
// bulk-synchronous iterations in which every vertex computes the gain of
// switching sides (how many more hyperedge co-members it would join) and
// the two sides exchange their highest-gain movers pairwise, so balance is
// preserved by construction. Each edge's side balance is maintained
// incrementally, making one refinement iteration O(pins). The original runs
// on Hadoop (§7.2); this is a faithful single-process re-implementation.
package shp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"maxembed/internal/hypergraph"
)

// Options configures a partitioning run. The zero value is not valid;
// Capacity (or NumBuckets) must be set.
type Options struct {
	// Capacity is the maximum vertices per bucket (d: embeddings per SSD
	// page). If zero it is derived as ceil(N/NumBuckets).
	Capacity int
	// NumBuckets is the number of buckets. If zero it is derived as
	// ceil(N/Capacity).
	NumBuckets int
	// MaxIters bounds refinement iterations per bisection level.
	// Default 12.
	MaxIters int
	// Seed drives the initial random assignment. The run is deterministic
	// for a fixed (graph, options) pair.
	Seed int64
	// Parallelism bounds the goroutines a run keeps busy. Once a bisection
	// has split its vertices, the two halves are refined concurrently, and
	// large gain-computation passes fan out across goroutines (the
	// original SHP is a map-reduce program, §7.2 of the paper); both draw
	// on this one budget. Zero uses GOMAXPROCS; 1 runs serially. Results
	// are identical at any parallelism level.
	Parallelism int
}

func (o Options) withDefaults(n int) (Options, error) {
	if o.Capacity <= 0 && o.NumBuckets <= 0 {
		return o, fmt.Errorf("shp: Capacity or NumBuckets must be positive")
	}
	if o.NumBuckets <= 0 {
		o.NumBuckets = (n + o.Capacity - 1) / o.Capacity
	}
	if o.NumBuckets <= 0 { // n == 0
		o.NumBuckets = 1
	}
	if o.Capacity <= 0 {
		o.Capacity = (n + o.NumBuckets - 1) / o.NumBuckets
	}
	if o.NumBuckets*o.Capacity < n {
		return o, fmt.Errorf("shp: %d buckets × capacity %d cannot hold %d vertices",
			o.NumBuckets, o.Capacity, n)
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 12
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Result reports the outcome of a partitioning run.
type Result struct {
	// Assign maps each vertex to its bucket in [0, NumBuckets).
	Assign []int32
	// NumBuckets is the bucket count used.
	NumBuckets int
	// Capacity is the per-bucket capacity used.
	Capacity int
	// Iterations is the total number of refinement iterations executed
	// across all bisection subproblems.
	Iterations int
	// Moves is the total number of vertex side-switches applied.
	Moves int
	// InitialConnectivity and FinalConnectivity are Σλ(e) before and
	// after partitioning — the total page reads the trace would cost
	// under the initial random and the final placement respectively.
	InitialConnectivity int64
	FinalConnectivity   int64
}

// Partition partitions g per opts.
func Partition(g *hypergraph.Graph, opts Options) (*Result, error) {
	n := g.NumVertices()
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	res := &Result{
		NumBuckets: opts.NumBuckets,
		Capacity:   opts.Capacity,
	}

	// Random starting order; the pre-refinement assignment (sequential
	// fill of the shuffled order) is the "random balanced" reference for
	// InitialConnectivity.
	verts := make([]hypergraph.Vertex, n)
	for i, v := range rng.Perm(n) {
		verts[i] = hypergraph.Vertex(v)
	}
	assign := make([]int32, n)
	if n > 0 {
		perBucket := (n + opts.NumBuckets - 1) / opts.NumBuckets
		if perBucket > opts.Capacity {
			perBucket = opts.Capacity
		}
		for i, v := range verts {
			assign[v] = int32(i / perBucket)
		}
		res.InitialConnectivity = g.TotalConnectivity(assign)
	}

	b := &bisector{
		g:        g,
		capacity: opts.Capacity,
		maxIters: opts.MaxIters,
		assign:   assign,
		side:     make([]int8, n),
		tokens:   make(chan *scratch, opts.Parallelism-1),
		scratch:  newScratch(g.NumEdges()),
	}
	for i := 1; i < opts.Parallelism; i++ {
		b.tokens <- nil
	}
	byID := make([]hypergraph.Vertex, n)
	for v := range byID {
		byID[v] = hypergraph.Vertex(v)
	}
	b.split(verts, byID, 0, int32(opts.NumBuckets))

	res.Assign = assign
	res.Iterations = b.iterations
	res.Moves = b.moves
	res.FinalConnectivity = g.TotalConnectivity(assign)
	return res, nil
}

// bisector runs the recursive bisection. Sibling subproblems own disjoint
// vertex sets, so they share side and assign but each runs on a bisector
// of its own, with its own per-edge scratch.
type bisector struct {
	g        *hypergraph.Graph
	capacity int
	maxIters int
	assign   []int32
	side     []int8 // per-vertex side within its current subproblem

	// tokens is the run's budget of Parallelism−1 goroutines beyond the
	// caller's, shared by sibling forks and the gain-pass fan-out. A token
	// carries the scratch a fork runs on (nil until first needed).
	tokens chan *scratch
	*scratch

	iterations int // refinement iterations run by this branch
	moves      int // side-switches applied by this branch
}

// scratch is the per-edge state of one subproblem's refinement.
type scratch struct {
	diff   []int32 // per edge: members on side 1 − members on side 0
	stamp  []int32 // epoch an edge's diff was last reset
	epoch  int32
	movers [2][]uint64 // per-side positive-gain vertices, moverKey
}

func newScratch(numEdges int) *scratch {
	return &scratch{
		diff:  make([]int32, numEdges),
		stamp: make([]int32, numEdges),
	}
}

// moverKey packs a mover so that ascending order is gain descending, then
// vertex ascending.
func moverKey(v hypergraph.Vertex, gain int32) uint64 {
	return uint64(^uint32(gain))<<32 | uint64(v)
}

// tryToken takes a token if one is free.
func (b *bisector) tryToken() (*scratch, bool) {
	select {
	case s := <-b.tokens:
		return s, true
	default:
		return nil, false
	}
}

// minForkVerts is the smallest subproblem whose halves are worth handing
// to another goroutine.
const minForkVerts = 1 << 10

// split assigns buckets [bLo, bHi) to verts. byID holds the same vertices
// in id order: the refinement passes walk it, so their reads of the
// incidence lists and per-vertex state run forward through memory, while
// verts keeps the random order the initial sides are cut from. Invariant:
// len(verts) ≤ (bHi−bLo) × capacity.
func (b *bisector) split(verts, byID []hypergraph.Vertex, bLo, bHi int32) {
	nBuckets := bHi - bLo
	if nBuckets <= 1 || len(verts) == 0 {
		for _, v := range verts {
			b.assign[v] = bLo
		}
		return
	}
	bl := (nBuckets + 1) / 2
	br := nBuckets - bl

	// Target a proportional split, clamped so each side fits its buckets.
	nl := int(int64(len(verts)) * int64(bl) / int64(nBuckets))
	if max := int(bl) * b.capacity; nl > max {
		nl = max
	}
	if min := len(verts) - int(br)*b.capacity; nl < min {
		nl = min
	}

	b.refine(verts, byID, nl, int(bl)*b.capacity, int(br)*b.capacity)

	// Partition both slices by side, preserving relative order for
	// determinism.
	left, right := b.partition(verts, nl)
	leftByID, rightByID := b.partition(byID, nl)

	// Each half's outcome depends only on its own vertices, so the left
	// half may run on another goroutine without changing the result.
	if len(verts) >= minForkVerts {
		if s, ok := b.tryToken(); ok {
			if s == nil {
				s = newScratch(b.g.NumEdges())
			}
			fork := &bisector{
				g: b.g, capacity: b.capacity, maxIters: b.maxIters,
				assign: b.assign, side: b.side, tokens: b.tokens, scratch: s,
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				fork.split(left, leftByID, bLo, bLo+bl)
			}()
			b.split(right, rightByID, bLo+bl, bHi)
			<-done
			b.tokens <- s
			b.iterations += fork.iterations
			b.moves += fork.moves
			return
		}
	}
	b.split(left, leftByID, bLo, bLo+bl)
	b.split(right, rightByID, bLo+bl, bHi)
}

// partition splits verts, of which nl are on side 0, by side.
func (b *bisector) partition(verts []hypergraph.Vertex, nl int) (left, right []hypergraph.Vertex) {
	left = make([]hypergraph.Vertex, 0, nl)
	right = make([]hypergraph.Vertex, 0, len(verts)-nl)
	for _, v := range verts {
		if b.side[v] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right
}

// refine splits verts into two sides (initially the first nl on side 0)
// and iteratively swaps the highest-gain movers between sides.
func (b *bisector) refine(verts, byID []hypergraph.Vertex, nl, capL, capR int) {
	g := b.g
	// New epoch: lazily reset the edge counters we will touch.
	b.epoch++
	anyEdge := false
	sizes := [2]int{}
	for i, v := range verts {
		s := int8(0)
		if i >= nl {
			s = 1
		}
		b.side[v] = s
		sizes[s]++
	}
	for _, v := range byID {
		s := b.side[v]
		for _, e := range g.IncidentEdges(v) {
			if b.stamp[e] != b.epoch {
				b.stamp[e] = b.epoch
				b.diff[e] = 0
				anyEdge = true
			}
			b.diff[e] += 2*int32(s) - 1
		}
	}
	if !anyEdge {
		return
	}

	for iter := 0; iter < b.maxIters; iter++ {
		b.iterations++
		b.movers[0] = b.movers[0][:0]
		b.movers[1] = b.movers[1][:0]
		b.collectMovers(byID)
		slices.Sort(b.movers[0])
		slices.Sort(b.movers[1])
		// Swap matched pairs; then drain leftovers while capacity allows.
		k := min(len(b.movers[0]), len(b.movers[1]))
		moves := 0
		for i := 0; i < k; i++ {
			b.flip(hypergraph.Vertex(b.movers[0][i]))
			b.flip(hypergraph.Vertex(b.movers[1][i]))
			moves += 2
		}
		for _, m := range b.movers[0][k:] {
			if sizes[1]+1 > capR {
				break
			}
			b.flip(hypergraph.Vertex(m))
			sizes[0]--
			sizes[1]++
			moves++
		}
		for _, m := range b.movers[1][k:] {
			if sizes[0]+1 > capL {
				break
			}
			b.flip(hypergraph.Vertex(m))
			sizes[1]--
			sizes[0]++
			moves++
		}
		b.moves += moves
		if moves == 0 {
			break
		}
	}
}

// collectMovers fills b.movers with every vertex whose gain from switching
// sides is positive. The gain pass only reads shared state, so it fans out
// across goroutines (the "map" side of SHP's map-reduce formulation) as
// far as free tokens allow; results are merged in chunk order and later
// sorted by (gain, vertex), so the outcome is independent of scheduling.
func (b *bisector) collectMovers(verts []hypergraph.Vertex) {
	g := b.g
	gainOf := func(v hypergraph.Vertex) int32 {
		// Switching sides joins an edge's co-members on the other side and
		// leaves those on its own side, less v itself, behind: per edge,
		// 1 + diff from side 0 and 1 − diff from side 1.
		edges := g.IncidentEdges(v)
		var d int32
		for _, e := range edges {
			d += b.diff[e]
		}
		if b.side[v] == 1 {
			d = -d
		}
		return int32(len(edges)) + d
	}

	const minParallelWork = 1 << 14
	var held []*scratch
	for 1+len(held) < len(verts)/minParallelWork {
		s, ok := b.tryToken()
		if !ok {
			break
		}
		held = append(held, s)
	}
	workers := 1 + len(held)
	if workers == 1 {
		for _, v := range verts {
			if gain := gainOf(v); gain > 0 {
				b.movers[b.side[v]] = append(b.movers[b.side[v]], moverKey(v, gain))
			}
		}
		return
	}

	chunk := (len(verts) + workers - 1) / workers
	type part struct{ movers [2][]uint64 }
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(verts))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, v := range verts[lo:hi] {
				if gain := gainOf(v); gain > 0 {
					s := b.side[v]
					parts[w].movers[s] = append(parts[w].movers[s], moverKey(v, gain))
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, s := range held {
		b.tokens <- s
	}
	for w := range parts {
		b.movers[0] = append(b.movers[0], parts[w].movers[0]...)
		b.movers[1] = append(b.movers[1], parts[w].movers[1]...)
	}
}

// flip moves v to the other side, updating the edge counters.
func (b *bisector) flip(v hypergraph.Vertex) {
	s := b.side[v]
	step := 2 - 4*int32(s) // ±2: one member leaves side s for the other
	for _, e := range b.g.IncidentEdges(v) {
		b.diff[e] += step
	}
	b.side[v] = 1 - s
}
