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
)

// The fault script: every churn scenario publishes, reads, crashes and
// restarts peers through the primitives below, so a scenario is a short list
// of steps and two scenarios differ only in their data.

// resources makes n Resource advertisements, the k-th named <name><k> and
// identified by the name <id><k>.
func resources(id, name string, n int) []*advertisement.Resource {
	advs := make([]*advertisement.Resource, n)
	for k := range advs {
		advs[k] = &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("%s%d", id, k)),
			Name: fmt.Sprintf("%s%d", name, k)}
	}
	return advs
}

// publish has peers[p] publish advs[p]: at once, without a timer, when
// spacing is 0; else one every spacing, the first p·spacing/len(peers) from
// now.
func publish(peers []*node.Node, advs [][]*advertisement.Resource, spacing time.Duration) {
	for p, peer := range peers {
		if spacing == 0 {
			for _, a := range advs[p] {
				peer.Discovery.Publish(a, 0)
			}
			continue
		}
		var next func(k int)
		next = func(k int) {
			peer.Discovery.Publish(advs[p][k], 0)
			if k+1 < len(advs[p]) {
				peer.Env.After(spacing, func() { next(k + 1) })
			}
		}
		peer.Env.After(spacing*time.Duration(p)/time.Duration(len(peers)), func() { next(0) })
	}
}

// cycle lists count lookup targets, the advertisements' names in turn.
func cycle(advs []*advertisement.Resource, count int) []string {
	names := make([]string, count)
	for i := range names {
		names[i] = advs[i%len(advs)].Name
	}
	return names
}

// PhaseStats aggregates the lookups of one phase. Attempted counts refused
// queries too; Succeeded, the answers that carry the advertisement looked up
// (Latency holds their round trips); Wrong, the answers that do not, any of
// which fails the phase; Timeouts, the lookups nothing answered: timed out,
// or refused because the peer held no lease.
type PhaseStats struct {
	Attempted, Succeeded, Wrong, Timeouts int
	Latency                               metrics.Samples
}

// A lookupPhase is a closed-loop read: peers[p] looks up targets[p] in
// order, and after each answer or time-out flushes its cache (so every lookup
// travels the overlay) and waits gap; after a query it could not send it
// waits afterRefusal. Whatever the overlay does meanwhile (crashes, rejoins,
// failover) runs on the same scheduler. The phase fails unless every peer
// finishes within horizon. With step set it is measured in slices of step:
// it runs on from the last finisher to the next slice boundary, as a loop
// that checks for the end between slices (the benchmark's) does.
type lookupPhase struct {
	peers                            []*node.Node
	targets                          [][]string
	gap, afterRefusal, step, horizon time.Duration
}

// run runs the phase to its end: the scheduler halts when the last peer
// finishes.
func (l lookupPhase) run(o *deploy.Overlay) (PhaseStats, error) {
	var ps PhaseStats
	finished := 0
	var issue func(p, i int)
	issue = func(p, i int) {
		peer, targets := l.peers[p], l.targets[p]
		if i >= len(targets) {
			if finished++; finished == len(l.peers) {
				o.Sched.Halt()
			}
			return
		}
		want := targets[i]
		next := func() {
			peer.Discovery.FlushCache()
			if l.gap > 0 {
				peer.Env.After(l.gap, func() { issue(p, i+1) })
			} else {
				issue(p, i+1)
			}
		}
		ps.Attempted++
		err := peer.Discovery.Query("Resource", "Name", want,
			func(r discovery.Result) {
				if carries(r.Advs, want) {
					ps.Succeeded++
					ps.Latency.AddDuration(r.Elapsed)
				} else {
					ps.Wrong++
				}
				next()
			},
			func() {
				ps.Timeouts++
				next()
			})
		if err != nil {
			ps.Timeouts++
			peer.Env.After(l.afterRefusal, func() { issue(p, i+1) })
		}
	}
	begin := o.Sched.Now()
	for p, peer := range l.peers {
		// A microsecond apart: simultaneous starts would be an artefact no
		// deployment has.
		peer.Env.After(time.Duration(p)*time.Microsecond, func() { issue(p, 0) })
	}
	o.Sched.Run(begin + l.horizon)
	if finished < len(l.peers) {
		return ps, fmt.Errorf("experiments: lookup phase did not finish within %v: %d of %d peers done, %d ok, %d timeouts",
			l.horizon, finished, len(l.peers), ps.Succeeded, ps.Timeouts)
	}
	if l.step > 0 {
		// Run even when the halt fell on a boundary: events left at that
		// instant still belong to the slice.
		slices := max(1, (o.Sched.Now()-begin+l.step-1)/l.step)
		o.Sched.Run(begin + slices*l.step)
	}
	if ps.Wrong > 0 {
		return ps, fmt.Errorf("experiments: %d of %d lookups answered with another advertisement", ps.Wrong, ps.Attempted)
	}
	return ps, nil
}

// carries reports whether one of advs is the Resource named want: the check
// every lookup's answer passes.
func carries(advs []advertisement.Advertisement, want string) bool {
	for _, a := range advs {
		if res, ok := a.(*advertisement.Resource); ok && res.Name == want {
			return true
		}
	}
	return false
}

// A Fault is one scripted crash, or with Restart cold restart (same
// identity, fresh state), of the rendezvous Rdv (deploy.Overlay.Rdvs), At
// after arming; At 0 applies it at once, without a timer.
type Fault struct {
	At      time.Duration
	Rdv     int
	Restart bool
}

// arm schedules the faults in list order.
func arm(o *deploy.Overlay, faults []Fault) {
	for _, f := range faults {
		apply := func() {
			if f.Restart {
				o.RestartRdv(f.Rdv)
			} else {
				o.KillRdv(f.Rdv)
			}
		}
		if f.At == 0 {
			apply()
		} else {
			o.Sched.After(f.At, apply)
		}
	}
}

// A rollingKill crashes one peer every interval until count have died: pick
// names the victim (nil spends the tick), and with rejoin set each victim
// restarts that long after its crash.
type rollingKill struct {
	every, rejoin time.Duration
	count         int
	pick          func() *node.Node
	killed        int
}

// start arms the first tick, one interval from now.
func (k *rollingKill) start(o *deploy.Overlay) {
	var tick func()
	tick = func() {
		if k.killed >= k.count {
			return
		}
		if n := k.pick(); n != nil {
			n.Kill()
			k.killed++
			if k.rejoin > 0 {
				o.Sched.After(k.rejoin, func() { o.RestartNode(n) })
			}
		}
		o.Sched.After(k.every, tick)
	}
	o.Sched.After(k.every, tick)
}

// advance runs the overlay in slices of step until horizon has passed or
// done reports true between two slices, and reports whether it did.
func advance(o *deploy.Overlay, step, horizon time.Duration, done func() bool) bool {
	for begin := o.Sched.Now(); o.Sched.Now()-begin < horizon; {
		if done() {
			return true
		}
		o.Sched.Run(o.Sched.Now() + step)
	}
	return false
}

// search is the read of the churn, recovery and volatility experiments: one
// searcher, count lookups cycling over advs, 5 s apart, 5 s after a refusal
// too.
func search(o *deploy.Overlay, searcher *node.Node, advs []*advertisement.Resource, count int) (PhaseStats, error) {
	return lookupPhase{
		peers:        []*node.Node{searcher},
		targets:      [][]string{cycle(advs, count)},
		gap:          5 * time.Second,
		afterRefusal: 5 * time.Second,
		// Each lookup costs at most the resolver time-out and the gap.
		horizon: time.Duration(count+1) * time.Minute,
	}.run(o)
}
