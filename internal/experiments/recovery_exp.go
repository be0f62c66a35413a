package experiments

import (
	"fmt"
	"time"

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

// RunChurnRecovery executes the mass-failure + staged-rejoin scenario.
func RunChurnRecovery(spec RecoverySpec) (RecoveryResult, error) {
	if spec.R < spec.Kills+3 {
		return RecoveryResult{}, fmt.Errorf("experiments: recovery needs r >= kills+3, got r=%d kills=%d",
			spec.R, spec.Kills)
	}
	advs := resources("heal-target-", "Heal", 8)
	o, searcher, err := pubSearch(spec.Seed, spec.R, advs)
	if err != nil {
		return RecoveryResult{}, err
	}
	res := RecoveryResult{Spec: spec}
	_, res.ViewBeforeKill, _ = tierStats(o)

	if res.Baseline, err = search(o, searcher, advs, spec.Queries); err != nil {
		return res, err
	}

	// Mass failure: a contiguous block in the middle crashes at once.
	// Victims keep their identity for the staged rejoin: one restarts per
	// tick, in kill order, with its original ID and address but cold state,
	// and rebuilds its view from the chain seeds.
	first := spec.R / 3
	if first == 0 {
		first = 1
	}
	if first+spec.Kills >= spec.R {
		first = spec.R - 1 - spec.Kills
	}
	kills := make([]Fault, spec.Kills)
	rejoins := make([]Fault, spec.Kills)
	for i := range kills {
		kills[i] = Fault{Rdv: first + i}
		rejoins[i] = Fault{At: time.Duration(i+1) * rejoinEvery, Rdv: first + i, Restart: true}
	}
	arm(o, kills)
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	_, res.ViewAfterKill, _ = tierStats(o)

	if res.Outage, err = search(o, searcher, advs, spec.Queries); err != nil {
		return res, err
	}

	arm(o, rejoins)
	settle := time.Duration(spec.Kills+1)*rejoinEvery + 15*time.Minute
	o.Sched.Run(o.Sched.Now() + settle)
	live, view, reconverged := tierStats(o)
	res.ViewAfterRejoin, res.Reconverged = view, reconverged && live == spec.R

	if res.Recovered, err = search(o, searcher, advs, spec.Queries); err != nil {
		return res, err
	}

	res.Steps = o.Sched.Steps()
	res.NetStats = o.Net.Stats()
	o.StopAll()
	return res, nil
}
