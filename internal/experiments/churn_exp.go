package experiments

import (
	"fmt"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/node"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// ChurnSpec parameterizes the volatility extension the paper's conclusion
// calls for: "it would be interesting to evaluate the behaviour of the
// fall-back mechanism used for resource discovery under high volatility".
type ChurnSpec struct {
	// R is the rendezvous count.
	R int
	// Kills bounds how many rendezvous die during the measurement, one
	// every churnKillEvery.
	Kills int
	// Queries is the number of lookups issued while churn is ongoing.
	Queries int
	// Seed is the master determinism seed.
	Seed int64
}

// churnKillEvery is the interval between rendezvous crashes (the churn
// rate); victims are chosen round-robin among non-essential peers.
const churnKillEvery = 90 * time.Second

// ChurnResult reports discovery behaviour under rendezvous churn.
type ChurnResult struct {
	Spec ChurnSpec
	// PhaseStats holds the lookups measured while peers crashed.
	PhaseStats
	// WalkFraction is the share of queries needing the fallback walk —
	// expected to rise as views destabilize.
	WalkFraction float64
}

// RunChurn measures discovery while rendezvous peers crash. The publisher's
// and searcher's own rendezvous are spared (lease failover is exercised by
// dedicated integration tests; here the walk fallback is the subject).
func RunChurn(spec ChurnSpec) (ChurnResult, error) {
	if spec.R < 4 {
		return ChurnResult{}, fmt.Errorf("experiments: churn needs r >= 4, got %d", spec.R)
	}
	advs := resources("churn-target-", "Churn", 20)
	o, searcher, err := pubSearch(spec.Seed, spec.R, advs)
	if err != nil {
		return ChurnResult{}, err
	}
	res := ChurnResult{Spec: spec}
	walksBefore := totalWalks(o)

	// Kill rendezvous on a timer, round-robin over indices 1..r-2 (sparing
	// the publisher's rdv 0 and searcher's rdv r-1), skipping around so the
	// chain of live peers stays mixed. The kills and the lookups share the
	// scheduler: crashes land between (and during) the measured lookups.
	victim := 1
	(&rollingKill{every: churnKillEvery, count: spec.Kills, pick: func() *node.Node {
		if victim >= spec.R-1 {
			victim = 1
		}
		n := o.Rdvs[victim]
		victim += 2
		return n
	}}).start(o)

	if res.PhaseStats, err = search(o, searcher, advs, spec.Queries); err != nil {
		return res, err
	}
	if spec.Queries > 0 {
		res.WalkFraction = float64(totalWalks(o)-walksBefore) / float64(spec.Queries)
	}
	o.StopAll()
	return res, nil
}

// pubSearch deploys the overlay of the churn and recovery experiments: a
// chain of r rendezvous with a publisher edge on the first and a searcher on
// the last. It converges for 20 minutes, publishes advs and lets the pushes
// land.
func pubSearch(seed int64, r int, advs []*advertisement.Resource) (o *deploy.Overlay, searcher *node.Node, err error) {
	o, err = deploy.Build(deploy.Spec{
		Seed:      seed,
		NumRdv:    r,
		Topology:  topology.Chain,
		Discovery: discovery.DefaultConfig(),
		Lease: rendezvous.Config{
			LeaseDuration:   5 * time.Minute,
			ResponseTimeout: 10 * time.Second,
		},
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "publisher"},
			{AttachTo: r - 1, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	o.StartAll()
	o.Sched.Run(20 * time.Minute)
	publish(o.Edges[:1], [][]*advertisement.Resource{advs}, 0)
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	return o, o.Edges[1], nil
}
