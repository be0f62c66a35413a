// Package experiments contains one driver per table/figure of the paper's
// evaluation (§4), plus this reproduction's extensions (churn, volatility,
// ablations, scale, routing; Table lists them all). Each one
// deploys an overlay on the simulator, runs the workload, and returns the
// measured data in the same shape the paper plots.
package experiments

import (
	"time"

	"jxta/internal/deploy"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// PeerviewSpec parameterizes a peerview-protocol experiment (§4.1).
type PeerviewSpec struct {
	// R is the number of rendezvous peers (the paper sweeps 10..580).
	R int
	// Topology is the bootstrap shape: chains and trees in the paper.
	Topology topology.Kind
	// EntryExpiry overrides PVE_EXPIRATION (zero keeps the 20 min default;
	// Figure 4 left's "tuned" run sets it beyond the experiment length).
	EntryExpiry time.Duration
	// Duration is the experiment length (60 min for most paper runs,
	// 120 min for r=580).
	Duration time.Duration
	// Seed is the master determinism seed.
	Seed int64
	// Shards partitions the simulated network across per-core shard
	// schedulers (see deploy.Spec.Shards). 0 or 1 keeps the serial engine
	// and its bit-exact golden trajectories.
	Shards int
}

func (s PeerviewSpec) withDefaults() PeerviewSpec {
	if s.Duration <= 0 {
		s.Duration = 60 * time.Minute
	}
	return s
}

// sampleEvery is the l(t) sampling period.
const sampleEvery = 30 * time.Second

// PeerviewResult is one Figure 3 (left) / Figure 4 (left) curve plus the
// Figure 3 (right) event log of the observed rendezvous.
type PeerviewResult struct {
	Spec PeerviewSpec
	// Size is l(t) of the observed rendezvous (the middle peer of the
	// deployment order — an arbitrary non-root member, like the paper's).
	Size metrics.Series
	// MeanSize is the mean l(t) across every rendezvous, sampled on the
	// same grid ("for a same experiment, the value l of each rendezvous
	// peer belonging to S evolves in the same way").
	MeanSize metrics.Series
	// Events is the observed peer's add/remove log with first-seen
	// numbering (Figure 3 right).
	Events *metrics.EventLog
	// MaxSize is the largest l observed at the observed peer.
	MaxSize int
	// FinalSize is l at the end of the run.
	FinalSize int
	// PlateauMean averages l over the last third of the run (phase 3).
	PlateauMean float64
	// ReachedMax reports whether the observed peer ever saw l = r-1.
	ReachedMax bool
	// ReachedMaxAt is the first time l hit r-1 (the paper's t1), if ever.
	ReachedMaxAt time.Duration
	// ConsistentAtEnd reports property (2) at the end of the run: every
	// rendezvous holds l = r-1.
	ConsistentAtEnd bool
	// Steps is the number of simulator events executed — part of the
	// engine's bit-for-bit replay contract (see the golden determinism
	// test).
	Steps uint64
	// NetStats snapshots the simulated network counters at the end of the
	// run.
	NetStats transport.Stats
	// Parallel carries the sharded engine's window instrumentation when
	// Spec.Shards > 1 (zero value for serial runs).
	Parallel simnet.ParallelStats
}

// RunPeerview executes a §4.1 peerview experiment.
func RunPeerview(spec PeerviewSpec) (PeerviewResult, error) {
	spec = spec.withDefaults()
	o, err := deploy.Build(deploy.Spec{
		Seed:     spec.Seed,
		NumRdv:   spec.R,
		Topology: spec.Topology,
		Shards:   spec.Shards,
		Peerview: peerview.Config{EntryExpiry: spec.EntryExpiry},
	})
	if err != nil {
		return PeerviewResult{}, err
	}
	res := PeerviewResult{Spec: spec, Events: metrics.NewEventLog()}

	observed := o.Rdvs[spec.R/2]
	observed.PeerView.SetListener(func(kind peerview.EventKind, peer ids.ID, at time.Duration) {
		mk := metrics.EventAdd
		if kind == peerview.EventRemove {
			mk = metrics.EventRemove
		}
		res.Events.Record(at, mk, peer)
	})
	o.StartAll()

	for t := time.Duration(0); t <= spec.Duration; t += sampleEvery {
		o.Sched.Run(t)
		l := observed.PeerView.Size()
		res.Size.Add(t, float64(l))
		sum := 0
		for _, r := range o.Rdvs {
			sum += r.PeerView.Size()
		}
		res.MeanSize.Add(t, float64(sum)/float64(len(o.Rdvs)))
		if l > res.MaxSize {
			res.MaxSize = l
		}
		if l == spec.R-1 && !res.ReachedMax {
			res.ReachedMax = true
			res.ReachedMaxAt = t
		}
	}
	res.FinalSize = observed.PeerView.Size()
	res.PlateauMean = res.Size.MeanAfter(spec.Duration * 2 / 3)
	res.ConsistentAtEnd = true
	for _, r := range o.Rdvs {
		if r.PeerView.Size() != spec.R-1 {
			res.ConsistentAtEnd = false
			break
		}
	}
	res.Steps = o.Sched.Steps()
	res.NetStats = o.Net.Stats()
	if ss := o.Engine(); ss != nil {
		res.Parallel = ss.ParallelStats()
	}
	o.StopAll()
	return res, nil
}

// Fig3Left runs the Figure 3 (left) family: l(t) for several r, default
// tunables, one overlay per core (Sweep); results are in the order of rs.
func Fig3Left(rs []int, topo topology.Kind, duration time.Duration, seed int64) ([]PeerviewResult, error) {
	out := make([]PeerviewResult, len(rs))
	err := Sweep(len(rs), func(i int) error {
		r, d := rs[i], duration
		if d <= 0 {
			// The paper ran 60 min for most sizes, ~120 min for r=580.
			d = 60 * time.Minute
			if r >= 400 {
				d = 120 * time.Minute
			}
		}
		res, err := RunPeerview(PeerviewSpec{
			R: r, Topology: topo, Duration: d, Seed: seed + int64(r),
		})
		out[i] = res
		return err
	})
	return out, err
}

// Fig3Right runs the Figure 3 (right) experiment: the add/remove event
// distribution of one rendezvous' peerview (the paper's is r=580 over 120
// minutes).
func Fig3Right(r int, duration time.Duration, seed int64) (PeerviewResult, error) {
	return RunPeerview(PeerviewSpec{R: r, Topology: topology.Chain,
		Duration: duration, Seed: seed})
}

// Fig4Left runs the Figure 4 (left) pair (the paper's is r=50 over 60
// minutes): the default PVE_EXPIRATION versus a tuned value exceeding the
// experiment length.
func Fig4Left(r int, duration time.Duration, seed int64) (def, tuned PeerviewResult, err error) {
	def, err = RunPeerview(PeerviewSpec{R: r, Topology: topology.Chain,
		Duration: duration, Seed: seed})
	if err != nil {
		return
	}
	tuned, err = RunPeerview(PeerviewSpec{R: r, Topology: topology.Chain,
		Duration: duration, Seed: seed, EntryExpiry: 365 * 24 * time.Hour})
	return
}
