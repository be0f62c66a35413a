package experiments

import (
	"fmt"
	"math"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// VolatilitySpec parameterizes the volatility sweep — the paper-§5 axis the
// conclusion calls for ("evaluate the behaviour of the fall-back mechanism
// ... under high volatility"), driven against the *self-healing* rendezvous
// tier: rendezvous crash on a timer with no peer spared, edges fail over to
// the peerview alternates their lease grants carried, and when a region of
// the overlay loses every reachable rendezvous, the deterministic successor
// election promotes an edge in place. Each KillEvery value is one sweep
// point; smaller intervals mean higher volatility.
type VolatilitySpec struct {
	// R is the rendezvous count.
	R int
	// EdgesPerRdv attaches this many edge peers to every rendezvous
	// (default 1). The first edge is the publisher, the last the searcher.
	EdgesPerRdv int
	// KillEvery lists the sweep points: the interval between rendezvous
	// crashes. No peer is spared — unlike the churn experiment, the
	// publisher's and searcher's rendezvous can die too; healing is the
	// subject.
	KillEvery []time.Duration
	// Kills bounds how many rendezvous die per point (default R, i.e. the
	// whole original tier — full attrition).
	Kills int
	// RejoinAfter restarts each victim this long after its crash (kill/
	// rejoin churn). Zero means victims never return: the tier survives
	// only through edge→rendezvous promotion.
	RejoinAfter time.Duration
	// Queries is the number of lookups issued while the killing runs.
	Queries int
	// IslandMerge enables the gossip-driven island merge and appends a
	// post-attrition merge phase to every sweep point: after the kill
	// schedule finishes, the run polls the tier until the surviving islands
	// have merged into a single peerview (or mergeSettle elapses), records
	// the time-to-single-tier, and measures discovery success again on the
	// merged overlay (VolatilityPoint.Merge).
	IslandMerge bool
	// Shards partitions the simulated network across per-core shard
	// schedulers (see deploy.Spec.Shards). 0 or 1 keeps the serial engine;
	// results are deterministic per (Seed, Shards).
	Shards int
	// Seed is the master determinism seed.
	Seed int64
}

func (s VolatilitySpec) withDefaults() VolatilitySpec {
	if s.EdgesPerRdv <= 0 {
		s.EdgesPerRdv = 1
	}
	if len(s.KillEvery) == 0 {
		s.KillEvery = []time.Duration{4 * time.Minute, 2 * time.Minute, time.Minute}
	}
	if s.Kills <= 0 {
		s.Kills = s.R
	}
	if s.Queries <= 0 {
		s.Queries = 20
	}
	return s
}

// mergeSettle caps the island-merge phase, in virtual time.
const mergeSettle = 30 * time.Minute

// MergeStats reports the post-attrition island-merge phase of one sweep
// point (VolatilitySpec.IslandMerge).
type MergeStats struct {
	// Merges counts completed merge handshake legs across the whole run
	// (merges start as soon as islands form, not only in this phase).
	Merges int
	// TimeToSingleTier is the virtual time from the end of the kill/query
	// phase until every live tier member saw the full tier — the headline
	// reconvergence metric. When Converged is false it equals the settle
	// window (the cap).
	TimeToSingleTier time.Duration
	// Converged reports whether the single tier was reached in the window.
	Converged bool
	// Phase aggregates post-merge discovery outcomes on the merged tier.
	Phase PhaseStats
}

// VolatilityPoint is one sweep point's outcome.
type VolatilityPoint struct {
	// KillEvery is the crash interval of this point.
	KillEvery time.Duration
	// Phase aggregates the discovery outcomes measured while peers died.
	Phase PhaseStats
	// Promotions counts edge→rendezvous role switches the healing performed.
	Promotions int
	// LiveTier is the final rendezvous-role population still attached to
	// the network (surviving originals, rejoined victims, promoted edges).
	LiveTier int
	// MeanView is the mean peerview size across the live tier at the end.
	MeanView float64
	// Reconverged reports whether every live rendezvous sees the full live
	// tier (l = LiveTier-1) after the settle window — property (2) of the
	// paper restored on the healed overlay.
	Reconverged bool
	// Merge reports the post-attrition merge phase; nil unless the spec
	// enabled IslandMerge.
	Merge *MergeStats
}

// VolatilityResult reports the full sweep.
type VolatilityResult struct {
	Spec   VolatilitySpec
	Points []VolatilityPoint
	// RunCost sums the points' costs (replay contract).
	RunCost
}

// attached reports whether the node's transport endpoint is still reachable
// on the simulated network (killed nodes detach).
func attached(o *deploy.Overlay, n *node.Node) bool {
	_, ok := o.Net.Lookup(n.Endpoint.Addr())
	return ok
}

// tierStats scans every deployed node for the current rendezvous tier:
// count, mean peerview size, and whether each member sees all the others.
// It allocates nothing: RunPeerview calls it at every sample.
func tierStats(o *deploy.Overlay) (live int, meanView float64, reconverged bool) {
	sum, lo, hi := 0, math.MaxInt, 0
	for _, list := range [][]*node.Node{o.Rdvs, o.Edges} {
		for _, n := range list {
			if n.IsRendezvous() && n.Started() && attached(o, n) {
				size := n.PeerView.Size()
				live++
				sum += size
				lo, hi = min(lo, size), max(hi, size)
			}
		}
	}
	if live == 0 {
		return 0, 0, false
	}
	return live, float64(sum) / float64(live), lo == live-1 && hi == live-1
}

// edgesSettled reports the client side of reconvergence: every started,
// attached, edge-role peer holds a rendezvous lease again. A tier can look
// merged while edges are still cycling through failover (or sitting
// dormant until a tier probe wakes them); declaring the single tier before
// they re-lease — and re-push their SRDI tuples — would overstate how
// healed the overlay is.
func edgesSettled(o *deploy.Overlay) bool {
	for _, list := range [][]*node.Node{o.Rdvs, o.Edges} {
		for _, n := range list {
			if n.IsRendezvous() || !n.Started() || !attached(o, n) {
				continue
			}
			if _, ok := n.Rendezvous.ConnectedRdv(); !ok {
				return false
			}
		}
	}
	return true
}

// RunVolatility executes the sweep: one overlay per KillEvery point, same
// seed, crashing rendezvous round-robin while the searcher issues queries.
func RunVolatility(spec VolatilitySpec) (VolatilityResult, error) {
	spec = spec.withDefaults()
	if spec.R < 2 {
		return VolatilityResult{}, fmt.Errorf("experiments: volatility needs r >= 2, got %d", spec.R)
	}
	res := VolatilityResult{Spec: spec}
	for _, killEvery := range spec.KillEvery {
		pt, c, err := runVolatilityPoint(spec, killEvery)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, pt)
		res.Steps += c.Steps
		res.NetStats.Messages += c.NetStats.Messages
		res.NetStats.Bytes += c.NetStats.Bytes
		res.NetStats.Dropped += c.NetStats.Dropped
		sum, p := &res.Parallel, c.Parallel
		sum.Windows += p.Windows
		sum.BusyShardSum += p.BusyShardSum
		sum.MaxBusy = max(sum.MaxBusy, p.MaxBusy)
		sum.TotalEvents += p.TotalEvents
		sum.CriticalEvents += p.CriticalEvents
		sum.CrossShard += p.CrossShard
	}
	return res, nil
}

// selfHealing is the overlay of the volatility sweep, and of the
// benchmark's discovery-churn workload: a chain of r self-healing
// rendezvous with edgesPerRdv edges on each.
func selfHealing(seed int64, r, edgesPerRdv int, merge bool) deploy.Spec {
	edges := make([]deploy.EdgeGroup, r)
	for i := range edges {
		edges[i] = deploy.EdgeGroup{AttachTo: i, Count: edgesPerRdv}
	}
	return deploy.Spec{
		Seed:     seed,
		NumRdv:   r,
		Topology: topology.Chain,
		Peerview: peerview.Config{ProbeTimeoutRounds: 3},
		Lease: rendezvous.Config{
			LeaseDuration:    4 * time.Minute,
			ResponseTimeout:  10 * time.Second,
			FailoverAttempts: 4,
			SelfHeal:         true,
			IslandMerge:      merge,
		},
		Discovery: discovery.DefaultConfig(),
		Edges:     edges,
	}
}

func runVolatilityPoint(spec VolatilitySpec, killEvery time.Duration) (VolatilityPoint, RunCost, error) {
	pt := VolatilityPoint{KillEvery: killEvery}
	ds := selfHealing(spec.Seed, spec.R, spec.EdgesPerRdv, spec.IslandMerge)
	ds.Shards = spec.Shards
	o, err := deploy.Build(ds)
	if err != nil {
		return pt, RunCost{}, err
	}
	if spec.IslandMerge {
		pt.Merge = &MergeStats{}
	}
	o.StartAll()
	publisher, searcher := o.Edges[0], o.Edges[len(o.Edges)-1]
	o.Sched.Run(20 * time.Minute) // converge views and leases

	advs := resources("vol-target-", "Vol", 10)
	publish([]*node.Node{publisher}, [][]*advertisement.Resource{advs}, 0)
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)

	// Crash the original rendezvous tier round-robin, nobody spared. With
	// RejoinAfter > 0 each victim restarts (kill/rejoin churn); without,
	// the tier only survives through promotion.
	victim := 0
	kills := &rollingKill{every: killEvery, rejoin: spec.RejoinAfter, count: spec.Kills, pick: func() *node.Node {
		for tries := 0; tries < spec.R; tries++ {
			n := o.Rdvs[victim%spec.R]
			victim++
			if attached(o, n) && n.Started() {
				return n
			}
		}
		return nil
	}}
	kills.start(o)

	if pt.Phase, err = search(o, searcher, advs, spec.Queries); err != nil {
		return pt, RunCost{}, err
	}

	if pt.Merge == nil {
		// Let detection, elections and peerview gossip settle, then read
		// the healed tier.
		o.Sched.Run(o.Sched.Now() + 20*time.Minute)
		pt.LiveTier, pt.MeanView, pt.Reconverged = tierStats(o)
	} else {
		// The kill schedule can outlast the query phase; the merge phase
		// is post-attrition by definition, so let the remaining crashes
		// land before starting the clock. Without rejoins at most R kills
		// can ever land — don't wait for a quota that cannot fill. Each
		// crash lands within a rejoin and two ticks of the one before (a
		// tick that finds the whole tier dead waits out the first rejoin).
		landed := func() bool {
			return kills.killed >= spec.Kills || spec.RejoinAfter <= 0 && kills.killed >= spec.R
		}
		if !advance(o, killEvery, time.Duration(spec.Kills+1)*(spec.RejoinAfter+2*killEvery), landed) {
			return pt, RunCost{}, fmt.Errorf("experiments: %d of %d kills landed", kills.killed, spec.Kills)
		}
		// Merge phase: poll the tier until the surviving islands gossiped
		// each other into a single peerview, recording time-to-single-tier,
		// then measure discovery on the merged overlay. tierStats only
		// reads node state, so the polling cannot perturb the replay.
		start := o.Sched.Now()
		pt.Merge.Converged = advance(o, 30*time.Second, mergeSettle, func() bool {
			live, _, reconv := tierStats(o)
			return reconv && live > 0 && edgesSettled(o)
		})
		pt.Merge.TimeToSingleTier = o.Sched.Now() - start
		pt.LiveTier, pt.MeanView, pt.Reconverged = tierStats(o)
		if pt.Merge.Phase, err = search(o, searcher, advs, spec.Queries); err != nil {
			return pt, RunCost{}, err
		}
	}
	// Each node's counters are written only by its own shard; the sums are
	// read here, between windows.
	totals := CollectNodeMetrics(o, 0).Totals
	pt.Promotions = int(totals["jxta_rendezvous_promotions_total"])
	if pt.Merge != nil {
		pt.Merge.Merges = int(totals["jxta_rendezvous_merges_total"])
	}
	c := costOf(o)
	o.StopAll()
	return pt, c, nil
}
