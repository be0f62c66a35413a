package experiments

import (
	"fmt"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/node"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// RecoverySpec parameterizes the churn-recovery experiment: the paper's
// conclusion asks how the fall-back discovery mechanism behaves "under high
// volatility"; this scenario goes one step further and measures how the
// overlay *heals* — a mass rendezvous failure followed by staged rejoins of
// the same peers (same IDs, cold protocol state), enabled by the service
// lifecycle's Restart path.
type RecoverySpec struct {
	// R is the rendezvous count.
	R int
	// Kills is the mass-failure size: a contiguous block of rendezvous in
	// the middle of the chain crashes at once. The publisher's rendezvous
	// (0) and the searcher's (R-1) are spared.
	Kills int
	// Queries is the number of discovery lookups issued in each of the
	// three phases (baseline, outage, recovered).
	Queries int
	// Seed is the master determinism seed.
	Seed int64
}

// rejoinEvery spaces the staged rejoins: every tick one killed rendezvous
// restarts, in kill order.
const rejoinEvery = time.Minute

// PhaseStats aggregates discovery outcomes over one phase of the scenario.
type PhaseStats struct {
	Succeeded int
	Timeouts  int
	Latency   metrics.Samples
}

// RecoveryResult reports overlay behaviour across the failure/heal cycle.
type RecoveryResult struct {
	Spec RecoverySpec
	// Baseline, Outage, Recovered are the three query phases: before the
	// mass failure, while the block is dark, and after every victim
	// rejoined and views re-settled.
	Baseline, Outage, Recovered PhaseStats
	// ViewBeforeKill/AfterKill/AfterRejoin are the mean peerview sizes of
	// the *live* rendezvous at the three phase boundaries. AfterKill still
	// counts dead entries (loose consistency: they linger until
	// PVE_EXPIRATION); AfterRejoin shows the healed view.
	ViewBeforeKill, ViewAfterKill, ViewAfterRejoin float64
	// Reconverged reports whether every live rendezvous sees the full view
	// (l = r-1) at the end — property (2) restored after mass failure.
	Reconverged bool
	// Steps and NetStats extend the engine's replay contract to the
	// lifecycle machinery (kill, restart, staged rejoin).
	Steps    uint64
	NetStats transport.Stats
}

// meanLiveView averages l across rendezvous currently attached to the
// network (dead peers are skipped).
func meanLiveView(o *deploy.Overlay) float64 {
	sum, n := 0, 0
	for _, r := range o.Rdvs {
		if _, ok := o.Net.Lookup(r.Endpoint.Addr()); !ok {
			continue
		}
		sum += r.PeerView.Size()
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// runQueryPhase issues count spaced lookups for advertisements named
// "<prefix>0".."<prefix>{advCount-1}" from the searcher, flushing its cache
// between queries so every lookup travels the overlay. It is the shared
// measurement loop of the churn and churn-recovery experiments; whatever
// the deployment does meanwhile (crashes, rejoins) runs on the same
// scheduler during the phase.
func runQueryPhase(o *deploy.Overlay, searcher *node.Node, count, advCount int, prefix string) (PhaseStats, error) {
	var ps PhaseStats
	done := false
	var runQuery func(i int)
	runQuery = func(i int) {
		if i >= count {
			done = true
			o.Sched.Halt()
			return
		}
		next := func() {
			searcher.Discovery.FlushCache()
			// Space the queries out so deployment events (churn, rejoins)
			// happen between them.
			searcher.Env.After(5*time.Second, func() { runQuery(i + 1) })
		}
		err := searcher.Discovery.Query("Resource", "Name",
			fmt.Sprintf("%s%d", prefix, i%advCount),
			func(r discovery.Result) {
				ps.Latency.AddDuration(r.Elapsed)
				ps.Succeeded++
				next()
			},
			func() {
				ps.Timeouts++
				next()
			})
		if err != nil {
			ps.Timeouts++
			searcher.Env.After(5*time.Second, func() { runQuery(i + 1) })
		}
	}
	o.Sched.After(0, func() { runQuery(0) })
	// Generous horizon: each query costs at most the resolver timeout plus
	// the 5 s spacing.
	o.Sched.Run(o.Sched.Now() + time.Duration(count+1)*time.Minute)
	if !done {
		return ps, fmt.Errorf("experiments: query phase did not finish (%d ok, %d timeouts)",
			ps.Succeeded, ps.Timeouts)
	}
	return ps, nil
}

// RunChurnRecovery executes the mass-failure + staged-rejoin scenario.
func RunChurnRecovery(spec RecoverySpec) (RecoveryResult, error) {
	if spec.R < spec.Kills+3 {
		return RecoveryResult{}, fmt.Errorf("experiments: recovery needs r >= kills+3, got r=%d kills=%d",
			spec.R, spec.Kills)
	}
	o, err := deploy.Build(deploy.Spec{
		Seed:      spec.Seed,
		NumRdv:    spec.R,
		Topology:  topology.Chain,
		Discovery: discovery.DefaultConfig(),
		Lease: rendezvous.Config{
			LeaseDuration:   5 * time.Minute,
			ResponseTimeout: 10 * time.Second,
		},
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "publisher"},
			{AttachTo: spec.R - 1, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	o.StartAll()
	publisher, searcher := o.Edges[0], o.Edges[1]
	o.Sched.Run(20 * time.Minute) // converge

	const advCount = 8
	for k := 0; k < advCount; k++ {
		publisher.Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("heal-target-%d", k)),
			Name:  fmt.Sprintf("Heal%d", k),
		}, 0)
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)

	res := RecoveryResult{Spec: spec}
	res.ViewBeforeKill = meanLiveView(o)

	if res.Baseline, err = runQueryPhase(o, searcher, spec.Queries, advCount, "Heal"); err != nil {
		return res, err
	}

	// Mass failure: a contiguous block in the middle crashes at once.
	// Victims keep their identity for the staged rejoin.
	first := spec.R / 3
	if first == 0 {
		first = 1
	}
	if first+spec.Kills >= spec.R {
		first = spec.R - 1 - spec.Kills
	}
	victims := make([]int, 0, spec.Kills)
	for v := first; v < first+spec.Kills; v++ {
		victims = append(victims, v)
		o.KillRdv(v)
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	res.ViewAfterKill = meanLiveView(o)

	if res.Outage, err = runQueryPhase(o, searcher, spec.Queries, advCount, "Heal"); err != nil {
		return res, err
	}

	// Staged rejoin: one victim restarts per tick, in kill order. Each
	// comes back with its original ID and address but cold state, and
	// rebuilds its view from the chain seeds.
	for i, v := range victims {
		v := v
		o.Sched.After(time.Duration(i+1)*rejoinEvery, func() {
			o.RestartRdv(v)
		})
	}
	settle := time.Duration(len(victims)+1)*rejoinEvery + 15*time.Minute
	o.Sched.Run(o.Sched.Now() + settle)
	res.ViewAfterRejoin = meanLiveView(o)
	res.Reconverged = true
	for _, r := range o.Rdvs {
		if r.PeerView.Size() != spec.R-1 {
			res.Reconverged = false
			break
		}
	}

	if res.Recovered, err = runQueryPhase(o, searcher, spec.Queries, advCount, "Heal"); err != nil {
		return res, err
	}

	res.Steps = o.Sched.Steps()
	res.NetStats = o.Net.Stats()
	o.StopAll()
	return res, nil
}
