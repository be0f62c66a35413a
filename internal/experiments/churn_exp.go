package experiments

import (
	"fmt"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/metrics"
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
	Spec      ChurnSpec
	Latency   metrics.Samples
	Succeeded int
	Timeouts  int
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
		return ChurnResult{}, err
	}
	o.StartAll()
	publisher, searcher := o.Edges[0], o.Edges[1]
	o.Sched.Run(20 * time.Minute)

	const advCount = 20
	for k := 0; k < advCount; k++ {
		publisher.Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("churn-target-%d", k)),
			Name:  fmt.Sprintf("Churn%d", k),
		}, 0)
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)

	res := ChurnResult{Spec: spec}
	walksBefore := totalWalks(o)

	// Kill rendezvous on a timer, round-robin over indices 1..r-2 (sparing
	// the publisher's rdv 0 and searcher's rdv r-1).
	killed := 0
	victim := 1
	var killTick func()
	killTick = func() {
		if killed >= spec.Kills {
			return
		}
		if victim >= spec.R-1 {
			victim = 1
		}
		o.KillRdv(victim)
		victim += 2 // skip around so the chain of live peers stays mixed
		killed++
		o.Sched.After(churnKillEvery, killTick)
	}
	o.Sched.After(churnKillEvery, killTick)

	// The kill ticker above and the query loop share the scheduler: crashes
	// land between (and during) the measured lookups.
	ps, err := runQueryPhase(o, searcher, spec.Queries, advCount, "Churn")
	if err != nil {
		return res, err
	}
	res.Latency = ps.Latency
	res.Succeeded = ps.Succeeded
	res.Timeouts = ps.Timeouts
	if spec.Queries > 0 {
		res.WalkFraction = float64(totalWalks(o)-walksBefore) / float64(spec.Queries)
	}
	o.StopAll()
	return res, nil
}
