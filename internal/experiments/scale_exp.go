package experiments

import (
	"fmt"
	"runtime"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// ScaleSpec parameterizes a sharded-engine scaling run: a rendezvous tier
// with a large leased edge population, the workload shape of the ROADMAP's
// 100k–1M-peer north star. Short leases crank renewal traffic up, giving
// the simulation the event density where parallel windows pay off — the
// paper's own workloads at testbed scale are far too sparse to need more
// than one core.
type ScaleSpec struct {
	// R is the number of rendezvous peers.
	R int
	// Edges is the total edge-peer population, spread round-robin over the
	// rendezvous tier (each edge attaches — and co-locates — with its
	// rendezvous).
	Edges int
	// Shards selects the engine (≤1 serial, >1 conservative sharded).
	// Deterministic per (Seed, Shards).
	Shards int
	// Duration is the virtual experiment length (default 10 min).
	Duration time.Duration
	// Lease overrides the lease duration (default 1 min: renewals at 30 s
	// keep the event rate up; 0 picks that default, not the paper's 20 m).
	Lease time.Duration
	// Seed is the master determinism seed.
	Seed int64
}

func (s ScaleSpec) withDefaults() ScaleSpec {
	if s.Duration <= 0 {
		s.Duration = 10 * time.Minute
	}
	if s.Lease <= 0 {
		s.Lease = time.Minute
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	return s
}

// ScaleResult is one scaling point: protocol outcomes and the run's cost
// (deterministic for a fixed spec — the golden test pins them, the engine's
// window instrumentation included) and the wall time it took
// (hardware-dependent).
type ScaleResult struct {
	Spec ScaleSpec
	RunCost
	MeanView float64
	Leased   int
	Wall     time.Duration
	// HeapBytesPerEdge is the live-heap delta from just before deployment
	// to just after the run (two GC cycles settle finalizer-freed memory),
	// divided by the edge population: the marginal resident cost of one
	// simulated edge. Hardware-independent to first order; the CI memory
	// smoke pins a ceiling on it.
	HeapBytesPerEdge float64
	// NodeMetrics aggregates every peer's runtime registry at the end of
	// the run (totals over the population + sampled full snapshots).
	NodeMetrics *NodeMetricsSummary
}

// RunScale deploys the overlay, runs it for the virtual duration and
// reports the scaling point.
func RunScale(spec ScaleSpec) (ScaleResult, error) {
	spec = spec.withDefaults()
	if spec.R < 1 {
		return ScaleResult{}, fmt.Errorf("experiments: scale run needs R ≥ 1, got %d", spec.R)
	}
	groups := make([]deploy.EdgeGroup, 0, spec.R)
	per, extra := spec.Edges/spec.R, spec.Edges%spec.R
	for i := 0; i < spec.R; i++ {
		count := per
		if i < extra {
			count++
		}
		if count > 0 {
			groups = append(groups, deploy.EdgeGroup{AttachTo: i, Count: count})
		}
	}
	baseHeap := liveHeap()
	o, err := deploy.Build(deploy.Spec{
		Seed:     spec.Seed,
		NumRdv:   spec.R,
		Shards:   spec.Shards,
		Topology: topology.Chain,
		Lease:    rendezvous.Config{LeaseDuration: spec.Lease},
		Edges:    groups,
	})
	if err != nil {
		return ScaleResult{}, err
	}
	o.StartAll()
	start := time.Now()
	o.Sched.Run(spec.Duration)
	res := ScaleResult{Spec: spec, Wall: time.Since(start)}
	runHeap := liveHeap()

	res.RunCost = costOf(o)
	_, res.MeanView, _ = tierStats(o)
	for _, e := range o.Edges {
		if _, ok := e.Rendezvous.ConnectedRdv(); ok {
			res.Leased++
		}
	}
	if spec.Edges > 0 && runHeap > baseHeap {
		res.HeapBytesPerEdge = float64(runHeap-baseHeap) / float64(spec.Edges)
	}
	res.NodeMetrics = CollectNodeMetrics(o, 2)
	o.StopAll()
	return res, nil
}

// liveHeap settles the collector (two cycles so anything freed by the first
// cycle's finalizers is gone too) and returns the live-heap size.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
