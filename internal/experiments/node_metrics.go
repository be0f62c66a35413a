package experiments

import (
	"strings"

	"jxta/internal/deploy"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// RunCost is what a run cost the engine. Every result that reports it
// embeds it, and costOf is the one place that fills it.
type RunCost struct {
	// Steps is the number of simulator events executed: part of the
	// engine's bit-for-bit replay contract (see the golden determinism
	// tests).
	Steps uint64
	// NetStats snapshots the simulated network counters.
	NetStats transport.Stats
	// Parallel carries the sharded engine's window instrumentation (zero
	// for serial runs).
	Parallel simnet.ParallelStats
}

// costOf reads the overlay's run cost. Call it from the driver side,
// between Sched.Run calls and before StopAll.
func costOf(o *deploy.Overlay) RunCost {
	c := RunCost{Steps: o.Sched.Steps(), NetStats: o.Net.Stats()}
	if eng := o.Engine(); eng != nil {
		c.Parallel = eng.ParallelStats()
	}
	return c
}

// NodeMetricsSummary is the per-node runtime-metrics section experiment
// results carry into jxta-bench's JSON output: the overlay-level registry,
// every per-node series summed across the population, and full snapshots
// for a small named sample of peers. The sample is bounded on purpose —
// a 10k-edge scale run would otherwise dump a million series — and
// SampledNodes/Nodes states exactly how much was kept.
type NodeMetricsSummary struct {
	// Nodes is the population the totals aggregate over.
	Nodes int `json:"nodes"`
	// SampledNodes is how many peers appear in Sample (the rest are only
	// in Totals — nothing else is dropped).
	SampledNodes int `json:"sampled_nodes"`
	// Overlay is the overlay-level registry: fabric traffic, engine
	// window/barrier instrumentation on sharded runs.
	Overlay map[string]float64 `json:"overlay"`
	// Totals sums every series name across all nodes. For counters this
	// is the overlay-wide total; for gauges it is a population sum (e.g.
	// jxta_peerview_size totals the tier's view entries).
	Totals map[string]float64 `json:"totals"`
	// Sample maps peer name to its full registry snapshot: the first
	// rendezvous and the first edge by deployment order, the two shapes a
	// dashboard would template from.
	Sample map[string]map[string]float64 `json:"sample"`
}

// histogramDetail reports whether a series key is a histogram expansion
// (per-bucket cumulative counts); those stay in Sample but are dropped
// from Totals, where summing cumulative buckets across nodes is noise.
func histogramDetail(key string) bool {
	return strings.Contains(key, "_bucket{le=")
}

// CollectNodeMetrics snapshots every deployed peer's metrics plus the
// overlay registry. Call it while virtual time is paused and before
// StopAll (lifecycle gauges reset on stop); collection is a pure
// observation. sample bounds how many peers keep full snapshots: the
// first rendezvous and first edge when sample ≥ 2, just the first
// rendezvous when 1, none when 0.
func CollectNodeMetrics(o *deploy.Overlay, sample int) *NodeMetricsSummary {
	nodes := o.Nodes()
	s := &NodeMetricsSummary{
		Nodes:   len(nodes),
		Overlay: o.Registry().Snapshot(),
		Totals:  make(map[string]float64),
		Sample:  make(map[string]map[string]float64),
	}
	for _, n := range nodes {
		for k, v := range n.Metrics.Snapshot() {
			if !histogramDetail(k) {
				s.Totals[k] += v
			}
		}
	}
	if sample >= 1 && len(o.Rdvs) > 0 {
		s.Sample[o.Rdvs[0].Config.Name] = o.Rdvs[0].Metrics.Snapshot()
	}
	if sample >= 2 && len(o.Edges) > 0 {
		s.Sample[o.Edges[0].Config.Name] = o.Edges[0].Metrics.Snapshot()
	}
	s.SampledNodes = len(s.Sample)
	return s
}
