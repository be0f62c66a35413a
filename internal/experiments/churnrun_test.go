package experiments

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// churnRun replays the repository benchmark's discovery-churn workload
// (benchmark/workloads_sim.go and sim.go) through deploy: the same spec, the
// same phases run in the same slices of virtual time, and the same draws from
// a rand.Rand seeded like the benchmark's, so a phase reads here exactly what
// the benchmark reports for it. The benchmark module imports this one, not
// the other way round, hence the copy.
type churnRun struct {
	o     *deploy.Overlay
	rng   *rand.Rand
	seed  int64
	names [][]string // names[p][k]: edge p's k-th advertisement
}

// newChurnRun builds the workload's overlay from seed, starts it and runs
// its 15 minutes of convergence.
func newChurnRun(t *testing.T, seed int64) *churnRun {
	t.Helper()
	const rdvs = 64
	edges := make([]deploy.EdgeGroup, rdvs)
	for i := range edges {
		edges[i] = deploy.EdgeGroup{AttachTo: i, Count: 10}
	}
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		NumRdv:   rdvs,
		Topology: topology.Chain,
		Peerview: peerview.Config{ProbeTimeoutRounds: 3},
		Lease: rendezvous.Config{
			LeaseDuration:    4 * time.Minute,
			ResponseTimeout:  10 * time.Second,
			FailoverAttempts: 4,
			SelfHeal:         true,
			IslandMerge:      true,
		},
		Discovery: discovery.DefaultConfig(),
		Edges:     edges,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(15 * time.Minute)
	return &churnRun{o: o, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// run advances virtual time in slices of step until horizon has elapsed or
// done reports true between two slices.
func (r *churnRun) run(step, horizon time.Duration, done func() bool) {
	begin := r.o.Sched.Now()
	for r.o.Sched.Now()-begin < horizon && (done == nil || !done()) {
		r.o.Sched.Run(r.o.Sched.Now() + step)
	}
}

// publish is the benchmark's publish phase: every edge publishes perPeer
// resources, one a second, the edges staggered inside the second.
func (r *churnRun) publish(perPeer int) {
	const spacing = time.Second
	edges := r.o.Edges
	r.names = make([][]string, len(edges))
	for p, peer := range edges {
		r.names[p] = make([]string, perPeer)
		for k := range r.names[p] {
			r.names[p][k] = fmt.Sprintf("s%d-p%d-k%d", r.seed, p, k)
		}
		var publish func(k int)
		publish = func(k int) {
			nm := r.names[p][k]
			peer.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, nm), Name: nm}, 0)
			if k+1 < perPeer {
				peer.Env.After(spacing, func() { publish(k + 1) })
			}
		}
		peer.Env.After(spacing*time.Duration(p)/time.Duration(len(edges)), func() { publish(0) })
	}
	horizon := spacing * time.Duration(perPeer+2)
	r.run(horizon/64, horizon, nil)
}

// lookup is the benchmark's lookup phase: every edge looks up perPeer names
// other edges published, closed loop, waiting gap after each answer or time
// out. It returns how many lookups were attempted and how many answered.
func (r *churnRun) lookup(t *testing.T, perPeer int, gap, step time.Duration) (attempted, ok int) {
	t.Helper()
	edges := r.o.Edges
	targets := make([][]string, len(edges))
	for p := range edges {
		targets[p] = make([]string, perPeer)
		for i := range targets[p] {
			owner := r.rng.Intn(len(edges) - 1)
			if owner >= p {
				owner++
			}
			targets[p][i] = r.names[owner][r.rng.Intn(len(r.names[owner]))]
		}
	}
	finished := 0
	var issue func(p, i int)
	issue = func(p, i int) {
		if i >= perPeer {
			finished++
			return
		}
		peer, want := edges[p], targets[p][i]
		advanced := false
		next := func() {
			if advanced {
				return
			}
			advanced = true
			peer.Discovery.FlushCache()
			if gap > 0 {
				peer.Env.After(gap, func() { issue(p, i+1) })
			} else {
				issue(p, i+1)
			}
		}
		attempted++
		err := peer.Discovery.Query("Resource", "Name", want, func(res discovery.Result) {
			if advanced {
				return
			}
			if !carries(res.Advs, want) {
				t.Errorf("a lookup of %s returned another advertisement", want)
			} else {
				ok++
			}
			next()
		}, next)
		if err != nil {
			advanced = true
			peer.Env.After(time.Second, func() { issue(p, i+1) })
		}
	}
	for p, peer := range edges {
		peer.Env.After(time.Duration(p)*time.Microsecond, func() { issue(p, 0) })
	}
	r.run(step, 30*time.Minute, func() bool { return finished == len(edges) })
	if finished != len(edges) {
		t.Fatalf("the lookup phase did not finish: %d of %d edges done", finished, len(edges))
	}
	return attempted, ok
}

// killQuarter kills a quarter of the rendezvous tier, one every four virtual
// seconds from now, the victims drawn from the run's generator; with restart,
// each comes back two minutes after its death.
func (r *churnRun) killQuarter(restart bool) {
	for k, v := range r.rng.Perm(len(r.o.Rdvs))[:len(r.o.Rdvs)/4] {
		at := time.Duration(k+1) * 4 * time.Second
		r.o.Sched.After(at, func() { r.o.KillRdv(v) })
		if restart {
			r.o.Sched.After(at+2*time.Minute, func() { r.o.RestartRdv(v) })
		}
	}
}

// carries reports whether one of advs is the Resource named want.
func carries(advs []advertisement.Advertisement, want string) bool {
	for _, a := range advs {
		if res, ok := a.(*advertisement.Resource); ok && res.Name == want {
			return true
		}
	}
	return false
}
