// Package placement implements the embedding placement strategies the
// paper evaluates (§5, Fig 14):
//
//   - Vanilla: sequential packing, no access-pattern awareness (Fig 3).
//   - SHP: Bandana's hypergraph-partitioned placement, one copy per key.
//   - RPP (strawman 1, §5.1): replicate the hottest keys before
//     partitioning and let the partitioner place the copies.
//   - FPR (strawman 2, §5.2): partition into finer clusters, then refill
//     each cluster with its most co-appearing outside keys.
//   - MaxEmbed (§5.3): partition with vanilla SHP, then add replica pages
//     chosen by connectivity-priority scoring — the paper's solution.
//
// All strategies emit a layout.Layout whose replica slots are bounded by
// the configured replication ratio r.
package placement

import (
	"fmt"

	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/lpa"
	"maxembed/internal/shp"
)

// Strategy names a placement algorithm.
type Strategy string

// The available strategies.
const (
	StrategyVanilla  Strategy = "vanilla"
	StrategySHP      Strategy = "shp"
	StrategyRPP      Strategy = "rpp"
	StrategyFPR      Strategy = "fpr"
	StrategyMaxEmbed Strategy = "maxembed"
)

// Strategies lists all strategies in evaluation order.
func Strategies() []Strategy {
	return []Strategy{StrategyVanilla, StrategySHP, StrategyRPP, StrategyFPR, StrategyMaxEmbed}
}

// Options configures a placement run.
type Options struct {
	// Capacity is d: embeddings per SSD page. Required.
	Capacity int
	// ReplicationRatio is r: replica key-slots as a fraction of the key
	// count. Ignored by Vanilla and SHP.
	ReplicationRatio float64
	// MaxIters bounds SHP refinement iterations per bisection level
	// (0 = default).
	MaxIters int
	// Seed makes the run deterministic.
	Seed int64
	// Partitioner selects the base partitioning algorithm for the SHP and
	// MaxEmbed strategies: PartitionerSHP (default, the paper's choice)
	// or PartitionerLPA (size-constrained label propagation).
	Partitioner Partitioner
	// Shards is the device count the layout will be striped over (page p
	// lives on device p mod Shards, matching ssd.Array). Shards > 1 makes
	// MaxEmbed's replication shard-aware: replica pages are steered onto
	// devices that hold none of their keys' home copies, so a key's copies
	// land on distinct devices and recovery can reroute around a faulty
	// shard. 0 or 1 means a single device (no steering).
	Shards int
}

// Partitioner names a base hypergraph-partitioning algorithm.
type Partitioner string

// Available partitioners.
const (
	PartitionerSHP Partitioner = "" // default
	PartitionerLPA Partitioner = "lpa"
)

// partition runs the configured base partitioner.
func partition(g *hypergraph.Graph, opts Options) ([]int32, error) {
	switch opts.Partitioner {
	case PartitionerSHP:
		res, err := shp.Partition(g, shp.Options{
			Capacity: opts.Capacity,
			MaxIters: opts.MaxIters,
			Seed:     opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		return res.Assign, nil
	case PartitionerLPA:
		res, err := lpa.Partition(g, lpa.Options{
			Capacity: opts.Capacity,
			MaxIters: opts.MaxIters,
			Seed:     opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		return res.Assign, nil
	default:
		return nil, fmt.Errorf("placement: unknown partitioner %q", opts.Partitioner)
	}
}

func (o Options) validate() error {
	if o.Capacity <= 0 {
		return fmt.Errorf("placement: Capacity must be positive, got %d", o.Capacity)
	}
	if o.ReplicationRatio < 0 {
		return fmt.Errorf("placement: ReplicationRatio must be non-negative, got %v", o.ReplicationRatio)
	}
	return nil
}

// Build runs the named strategy over the query hypergraph.
func Build(s Strategy, g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	switch s {
	case StrategyVanilla:
		if err := opts.validate(); err != nil {
			return nil, err
		}
		return layout.Vanilla(g.NumVertices(), opts.Capacity), nil
	case StrategySHP:
		return SHP(g, opts)
	case StrategyRPP:
		return RPP(g, opts)
	case StrategyFPR:
		return FPR(g, opts)
	case StrategyMaxEmbed:
		return MaxEmbed(g, opts)
	default:
		return nil, fmt.Errorf("placement: unknown strategy %q", s)
	}
}

// SHP places one copy of each key via Social Hash Partitioning — the
// Bandana baseline.
func SHP(g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	assign, err := partition(g, opts)
	if err != nil {
		return nil, err
	}
	return layout.FromAssignment(assign, opts.Capacity)
}

// MaxEmbed implements connectivity-priority replication (§5.3):
//
//  1. Partition the hypergraph with vanilla SHP.
//  2. Score every vertex: score(v) = Σ_{e∋v} (λ(e)−1), where λ(e) is the
//     number of buckets edge e spans — the vertex's contribution to
//     residual read amplification, weighted by its hotness.
//  3. Take the top ⌊rN/d⌋ scored vertices as replica-cluster bases.
//  4. For each base, gather its (d−1) most co-occurring neighbours that
//     are not already co-located with it, and emit them as a replica page.
func MaxEmbed(g *hypergraph.Graph, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	assign, err := partition(g, opts)
	if err != nil {
		return nil, err
	}
	return Replicate(g, assign, opts)
}

// Replicate runs the connectivity-priority replication (§5.3 steps 2–4)
// over an existing home assignment, producing a layout whose home pages
// follow assign and whose replica pages are chosen from g's co-appearance
// structure. Because replication never moves home copies, it can be re-run
// against a fresher query trace to refresh the replicas as access patterns
// drift, without rewriting the base table on SSD.
func Replicate(g *hypergraph.Graph, assign []int32, opts Options) (*layout.Layout, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if len(assign) != n {
		return nil, fmt.Errorf("placement: assignment covers %d keys, graph has %d", len(assign), n)
	}
	lay, err := layout.FromAssignment(assign, opts.Capacity)
	if err != nil {
		return nil, err
	}

	budget := replicaPageBudget(n, opts.Capacity, opts.ReplicationRatio)
	if budget == 0 || n == 0 {
		return lay, nil
	}

	// Score vertices by Σ(λ(e)−1) over their edges.
	score := make([]int64, n)
	for e, lam := range g.Connectivities(assign) {
		if lam <= 1 {
			continue
		}
		for _, v := range g.Edge(hypergraph.EdgeID(e)) {
			score[v] += int64(lam) - 1
		}
	}
	// Bases come in score-descending, id-ascending order, as packed keys
	// (^score in the high word, the id in the low) popped from a heap:
	// the budget runs out long before the order does. Zero-score vertices
	// are never bases. A score never exceeds the graph's pin count, which
	// stays far below the 2^32 the high word holds.
	order := make(hypergraph.RankHeap, 0, n)
	for v, s := range score {
		if s > 0 {
			order = append(order, uint64(^uint32(s))<<32|uint64(v))
		}
	}
	order.Init()

	// pairSeen records key pairs already co-located on a replica page, so
	// successive bases with near-identical neighbourhoods (common when a
	// recurring key set is much larger than a page) produce complementary
	// digests instead of duplicate pages — the wasted-space failure mode
	// the paper attributes to naive replication (§5.1).
	pairSeen := make(map[uint64]struct{}, budget*opts.Capacity*(opts.Capacity-1)/2)
	pairKey := func(a, b hypergraph.Vertex) uint64 {
		if a > b {
			a, b = b, a
		}
		return uint64(a)<<32 | uint64(b)
	}
	coocc := hypergraph.NewCoOccurrence(g)
	var cands [][]layout.Key
	for len(order) > 0 && len(cands) < budget {
		base := hypergraph.Vertex(order.Pop())
		baseBucket := assign[base]
		neighbors := coocc.Top(base, opts.Capacity-1, func(u hypergraph.Vertex) bool {
			if assign[u] == baseBucket {
				return true
			}
			_, dup := pairSeen[pairKey(base, u)]
			return dup
		})
		if len(neighbors) == 0 {
			continue
		}
		keys := make([]layout.Key, 0, len(neighbors)+1)
		keys = append(keys, base)
		keys = append(keys, neighbors...)
		cands = append(cands, keys)
		for i, a := range keys {
			for _, b := range keys[i+1:] {
				pairSeen[pairKey(a, b)] = struct{}{}
			}
		}
	}
	if err := emitReplicaPages(lay, cands, opts.Shards); err != nil {
		return nil, err
	}
	return lay, nil
}

// emitReplicaPages appends the candidate replica pages (built in score
// order) to the layout. With Shards > 1 the candidates are permuted across
// the replica-page slots: slot i becomes global page NumPages+i, which
// lives on device (NumPages+i) mod Shards under ssd.Array striping, so
// each slot greedily takes the earliest unplaced candidate with the fewest
// keys whose home page shares that device — a key's replica then lands on
// a different device than its home copy whenever the budget allows, which
// is what lets recovery route around a whole faulty shard. Shards <= 1
// emits the candidates in score order unchanged (the historical layout).
func emitReplicaPages(lay *layout.Layout, cands [][]layout.Key, shards int) error {
	if shards > 1 && len(cands) > 1 {
		numHome := lay.NumPages()
		// collisions[i*shards+s]: candidate i's keys whose home is on shard s.
		collisions := make([]int, len(cands)*shards)
		for i, keys := range cands {
			for _, k := range keys {
				collisions[i*shards+int(lay.Home[k])%shards]++
			}
		}
		used := make([]bool, len(cands))
		ordered := make([][]layout.Key, 0, len(cands))
		for slot := 0; slot < len(cands); slot++ {
			slotShard := (numHome + slot) % shards
			pick, best := -1, int(^uint(0)>>1)
			for i := range cands {
				if used[i] {
					continue
				}
				if c := collisions[i*shards+slotShard]; c < best {
					pick, best = i, c
					if c == 0 {
						break
					}
				}
			}
			used[pick] = true
			ordered = append(ordered, cands[pick])
		}
		cands = ordered
	}
	for _, keys := range cands {
		if _, err := lay.AddReplicaPage(keys); err != nil {
			return fmt.Errorf("placement: maxembed replica page: %w", err)
		}
	}
	return nil
}

// replicaPageBudget returns ⌊rN/d⌋: the number of extra pages a
// replication ratio r affords.
func replicaPageBudget(n, capacity int, r float64) int {
	if r <= 0 {
		return 0
	}
	return int(r * float64(n) / float64(capacity))
}
