package experiments

import (
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/topology"
)

// Failure injection: the protocols must stay live under message loss — the
// peerview keeps probing, leases keep renewing, discovery retries are the
// application's job but individual losses must never wedge a peer.

func lossyOverlay(t *testing.T, lossRate float64, r int, seed int64) *deploy.Overlay {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:      seed,
		NumRdv:    r,
		Topology:  topology.Chain,
		Discovery: discovery.DefaultConfig(),
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "pub"},
			{AttachTo: r - 1, Count: 1, Prefix: "search"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Net.Model().LossRate = lossRate
	return o
}

func TestPeerviewConvergesUnderModerateLoss(t *testing.T) {
	o := lossyOverlay(t, 0.05, 10, 1)
	o.StartAll()
	o.Sched.Run(30 * time.Minute)
	// With 5% loss and periodic probing, the view still assembles fully.
	for i, rdv := range o.Rdvs {
		if rdv.PeerView.Size() < 8 {
			t.Fatalf("rdv %d view %d under 5%% loss", i, rdv.PeerView.Size())
		}
	}
	if o.Net.Stats().Dropped == 0 {
		t.Fatal("loss injection inactive")
	}
}

func TestLeaseSurvivesLoss(t *testing.T) {
	o := lossyOverlay(t, 0.05, 4, 2)
	o.StartAll()
	o.Sched.Run(45 * time.Minute)
	for i, e := range o.Edges {
		if _, ok := e.Rendezvous.ConnectedRdv(); !ok {
			t.Fatalf("edge %d lost its lease permanently under 5%% loss", i)
		}
	}
}

func TestDiscoveryMostlySucceedsUnderLoss(t *testing.T) {
	o := lossyOverlay(t, 0.03, 6, 3)
	o.StartAll()
	o.Sched.Run(15 * time.Minute)
	advs := resources("lossy-", "Lossy", 10)
	publish(o.Edges[:1], [][]*advertisement.Resource{advs}, 0)
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)

	ps, err := lookupPhase{peers: o.Edges[1:], targets: [][]string{cycle(advs, 30)},
		afterRefusal: time.Second, horizon: time.Hour}.run(o)
	if err != nil {
		t.Fatal(err)
	}
	ok, timeouts := ps.Succeeded, ps.Timeouts
	// 3% per-message loss over a ~4-message path: most queries succeed.
	if ok < 20 {
		t.Fatalf("only %d/30 queries succeeded under 3%% loss (timeouts=%d)", ok, timeouts)
	}
	if timeouts == 0 {
		t.Log("note: no query lost any message this seed (still valid)")
	}
}

func TestTotalPartitionExpiresEverything(t *testing.T) {
	// 100% loss after convergence: every view must drain to empty once
	// PVE_EXPIRATION passes — the protocol's self-cleaning property.
	o := lossyOverlay(t, 0, 6, 4)
	o.StartAll()
	o.Sched.Run(15 * time.Minute)
	for _, rdv := range o.Rdvs {
		if rdv.PeerView.Size() != 5 {
			t.Fatal("overlay did not converge before partition")
		}
	}
	o.Net.Model().LossRate = 1.0
	o.Sched.Run(o.Sched.Now() + 45*time.Minute) // > PVE_EXPIRATION
	for i, rdv := range o.Rdvs {
		if rdv.PeerView.Size() != 0 {
			t.Fatalf("rdv %d still sees %d peers after total partition",
				i, rdv.PeerView.Size())
		}
	}
}
