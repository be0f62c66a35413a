package main

import (
	"fmt"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// Workload names are permanent: results are compared across commits by name.
const (
	wlPeerview = "peerview-r200"
	wlEdges    = "edges-10k"
	wlChurn    = "discovery-churn"
	wlLive     = "live-tcp"
)

var workloadNames = []string{wlPeerview, wlEdges, wlChurn, wlLive}

// scale shrinks a population about tenfold for -quick smoke runs.
func scale(n int, quick bool) int {
	if quick {
		return (n + 9) / 10
	}
	return n
}

// evenEdges spreads edges over rendezvous, perRdv each.
func evenEdges(rdvs, perRdv int) []deploy.EdgeGroup {
	groups := make([]deploy.EdgeGroup, rdvs)
	for i := range groups {
		groups[i] = deploy.EdgeGroup{AttachTo: i, Count: perRdv}
	}
	return groups
}

// phaseDegraded is the fault-injection phase of discovery-churn's traced
// run. Its failed lookups are what it measures: they are reported per phase
// in the trace file and are no part of a run's attempted and failed counts.
const phaseDegraded = "degraded"

// The lookup slice is well under one lookup's virtual round trip, so a
// lookup phase splits into dozens of slices.
const lookupStep = 50 * time.Millisecond

var simWorkloads = map[string]*simWorkload{
	// 200 rendezvous bootstrapped as a chain, no edges, 60 virtual minutes:
	// the peerview protocol and the advertisement codec do the work.
	wlPeerview: {
		name:           wlPeerview,
		setups:         100,
		setupBatch:     10,
		nominalReplay:  6,
		shardedRegion:  "run",
		shardedHorizon: 60 * time.Minute,
		spec: func(seed int64, quick bool) deploy.Spec {
			return deploy.Spec{
				Seed:      seed,
				NumRdv:    scale(200, quick),
				Topology:  topology.Chain,
				Discovery: discovery.DefaultConfig(),
			}
		},
		run: func(r *simRun) error {
			if _, err := r.runPhase("run", true, 30*time.Second, 60*time.Minute, nil); err != nil {
				return err
			}
			if err := r.endBody(); err != nil {
				return err
			}
			if !r.quick && r.rep.coverage < 0.95 {
				return fmt.Errorf("view_coverage %.4f is below 0.95", r.rep.coverage)
			}
			if !r.probe {
				return nil
			}
			// Discovery probe: the rendezvous publish and look up themselves
			// (the paper's Fig. 4 right at r=200).
			if err := r.publishPhase("publish", false, r.o.Rdvs, 5, time.Second); err != nil {
				return err
			}
			return r.lookupPhase("lookup", false, r.o.Rdvs, 10, 0, lookupStep, 30*time.Minute)
		},
	},
	// 250 rendezvous and 10,000 leased, hibernating edges on one-minute
	// leases: renewals, the scheduler heap and per-edge memory do the work.
	wlEdges: {
		name:           wlEdges,
		setups:         6,
		nominalReplay:  11,
		shardedRegion:  "run",
		shardedHorizon: 10 * time.Minute,
		spec: func(seed int64, quick bool) deploy.Spec {
			r := scale(250, quick)
			return deploy.Spec{
				Seed:        seed,
				NumRdv:      r,
				Topology:    topology.Chain,
				LeanMetrics: true,
				Hibernate:   true,
				Lease:       rendezvous.Config{LeaseDuration: time.Minute},
				Discovery:   discovery.DefaultConfig(),
				Edges:       evenEdges(r, 40),
			}
		},
		run: func(r *simRun) error {
			if _, err := r.runPhase("run", true, 10*time.Second, 10*time.Minute, nil); err != nil {
				return err
			}
			if err := r.endBody(); err != nil {
				return err
			}
			if !r.probe {
				return nil
			}
			// Discovery probe at population scale: every edge wakes to
			// publish once and look up once.
			if err := r.publishPhase("publish", false, r.o.Edges, 1, 2*time.Second); err != nil {
				return err
			}
			return r.lookupPhase("lookup", false, r.o.Edges, 1, 0, lookupStep, 30*time.Minute)
		},
	},
	// 64 rendezvous with 10 edges each: writes, then reads, then a quarter
	// of the rendezvous tier crashes and rejoins, then reads over the healed
	// overlay. Reads while rendezvous are still down lose lookups (see the
	// README), and a workload's operations must not fail at the baseline, so
	// only the traced run makes them, as a diagnostic after the body.
	wlChurn: {
		name:           wlChurn,
		setups:         5,
		nominalReplay:  8,
		converge:       15 * time.Minute,
		shardedRegion:  "converge",
		shardedHorizon: 15 * time.Minute,
		spec: func(seed int64, quick bool) deploy.Spec {
			r := scale(64, quick)
			return deploy.Spec{
				Seed:     seed,
				NumRdv:   r,
				Topology: topology.Chain,
				// The self-healing configuration of the library facade.
				Peerview: peerview.Config{ProbeTimeoutRounds: 3},
				Lease: rendezvous.Config{
					LeaseDuration:    4 * time.Minute,
					ResponseTimeout:  10 * time.Second,
					FailoverAttempts: 4,
					SelfHeal:         true,
					IslandMerge:      true,
				},
				Discovery: discovery.DefaultConfig(),
				Edges:     evenEdges(r, 10),
			}
		},
		run: func(r *simRun) error {
			edges := r.o.Edges
			if err := r.publishPhase("publish", true, edges, 30, time.Second); err != nil {
				return err
			}
			if err := r.lookupPhase("lookup", true, edges, 60, 0, lookupStep, 30*time.Minute); err != nil {
				return err
			}
			// Kill a quarter of the rendezvous, one every four virtual
			// seconds, victims drawn from the seed; then give the tier
			// longer than PVE_EXPIRATION to heal, so that no view routes to
			// a dead replica any more, and read again.
			victims := r.rng.Perm(len(r.o.Rdvs))[:len(r.o.Rdvs)/4]
			for k, v := range victims {
				at := time.Duration(k+1) * 4 * time.Second
				r.o.Sched.After(at, func() { r.o.KillRdv(v) })
				r.o.Sched.After(at+2*time.Minute, func() { r.o.RestartRdv(v) })
			}
			if _, err := r.runPhase("heal", true, 30*time.Second, 20*time.Minute, nil); err != nil {
				return err
			}
			// Two virtual seconds between an edge's lookups: a quarter of
			// them now walk the whole tier, and back to back those walks
			// queue at the rendezvous until the slowest outlive the
			// resolver's 30 s timeout.
			if err := r.lookupPhase("churn", true, edges, 15, 2*time.Second, 10*lookupStep, 30*time.Minute); err != nil {
				return err
			}
			if err := r.endBody(); err != nil || r.tr == nil {
				return err
			}
			// Traced replay only: kill another quarter for good and read at
			// once, while leases fail over and views still hold the dead.
			for k, v := range r.rng.Perm(len(r.o.Rdvs))[:len(r.o.Rdvs)/4] {
				r.o.Sched.After(time.Duration(k+1)*4*time.Second, func() { r.o.KillRdv(v) })
			}
			return r.lookupPhase(phaseDegraded, false, edges, 8, 2*time.Second, 10*lookupStep, 30*time.Minute)
		},
	},
}
