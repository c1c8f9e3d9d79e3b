package server

import (
	"maxembed/internal/placement"
	"maxembed/internal/serving"
)

// SpreadReporter exposes the last co-activation placement pass — in
// practice maxembed.DB, whose LastDespread returns nil until a despread
// pass has run (single-device deployments, or co-activation placement
// disabled on a homogeneous array).
type SpreadReporter interface {
	LastDespread() *placement.SpreadReport
}

// WithSpreadReport wires the co-activation placement report into /v1/stats
// and /metrics. The live per-query max-shard-depth gauge is exported on
// multi-shard backends regardless; this option adds the offline pass's
// before/after spread and replica-diversity numbers next to it.
func WithSpreadReport(sr SpreadReporter) Option {
	return func(h *Handler) { h.spreadSrc = sr }
}

// CoactStatsEntry is the co-activation slice of /v1/stats, present on
// multi-shard backends: how deep the busiest shard's read queue goes for
// an average query right now, and — when a placement pass ran — what that
// pass claimed to have done, so drift between the two is observable.
type CoactStatsEntry struct {
	// MeanMaxShardDepth is the mean, over served queries since the last
	// engine swap or reset, of the deepest per-shard count of each
	// query's planned reads (1.0 = perfectly spread plans).
	MeanMaxShardDepth float64 `json:"mean_max_shard_depth"`
	// Queries is how many queries the depth histogram has absorbed.
	Queries int64 `json:"queries"`
	// Placement echoes the last despread pass, omitted when none ran.
	Placement *CoactPlacementEntry `json:"placement,omitempty"`
}

// CoactPlacementEntry is the last despread pass's report on /v1/stats.
type CoactPlacementEntry struct {
	Shards int `json:"shards"`
	Tiers  int `json:"tiers"`
	// MovedPages is how many pages changed shard; EdgesScored how many
	// co-activation edges drove the objective (0 = diversity-only mode).
	MovedPages  int `json:"moved_pages"`
	EdgesScored int `json:"edges_scored"`
	// Mean/max per-query max-shard depth over the scored edges, either
	// side of the permutation.
	MeanDepthBefore float64 `json:"mean_depth_before"`
	MeanDepthAfter  float64 `json:"mean_depth_after"`
	MaxDepthBefore  int     `json:"max_depth_before"`
	MaxDepthAfter   int     `json:"max_depth_after"`
	// Replica shard-diversity either side of the pass: pairwise home/copy
	// shard collisions, and keys left with no shard-diverse replica.
	ReplicaCollisionsBefore int `json:"replica_collisions_before"`
	ReplicaCollisionsAfter  int `json:"replica_collisions_after"`
	UncoveredKeysBefore     int `json:"uncovered_keys_before"`
	UncoveredKeysAfter      int `json:"uncovered_keys_after"`
}

// coactStats builds the co-activation stats slice: nil on one-shard
// backends, where per-query depth degenerates to the plan size and there
// is nothing to spread.
func (h *Handler) coactStats(eng *serving.Engine) *CoactStatsEntry {
	if eng.NumShards() < 2 {
		return nil
	}
	out := &CoactStatsEntry{
		MeanMaxShardDepth: eng.SpreadDepth.Mean(),
		Queries:           eng.SpreadDepth.Count(),
	}
	if h.spreadSrc != nil {
		if rep := h.spreadSrc.LastDespread(); rep != nil {
			out.Placement = &CoactPlacementEntry{
				Shards:                  rep.Shards,
				Tiers:                   rep.Tiers,
				MovedPages:              rep.Moved,
				EdgesScored:             rep.Edges,
				MeanDepthBefore:         rep.MeanDepthBefore,
				MeanDepthAfter:          rep.MeanDepthAfter,
				MaxDepthBefore:          rep.MaxDepthBefore,
				MaxDepthAfter:           rep.MaxDepthAfter,
				ReplicaCollisionsBefore: rep.ReplicaCollisionsBefore,
				ReplicaCollisionsAfter:  rep.ReplicaCollisionsAfter,
				UncoveredKeysBefore:     rep.UncoveredKeysBefore,
				UncoveredKeysAfter:      rep.UncoveredKeysAfter,
			}
		}
	}
	return out
}
