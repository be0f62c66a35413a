package jxta

import (
	"testing"
	"time"

	"jxta/internal/discovery"
)

// TestEdgeStopRestartRejoin drives the full edge lifecycle through the
// facade: connect, graceful stop (lease cancelled at the rendezvous,
// zero pending callbacks), restart, rejoin, and working discovery after
// the rejoin.
func TestEdgeStopRestartRejoin(t *testing.T) {
	sim := newSim(t, 4, 0, 3)
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	pub, searcher := sim.Edge(0), sim.Edge(1)
	if !pub.Connected() || !searcher.Connected() {
		t.Fatal("edges did not connect")
	}
	pub.PublishResource("Restartable", nil)
	sim.Run(2 * time.Minute)

	pub.Stop()
	if pub.Started() || pub.Connected() {
		t.Fatal("peer still up after Stop")
	}
	if n := sim.PendingCallbacks(pub); n != 0 {
		t.Fatalf("stopped edge owns %d pending callbacks, want 0", n)
	}
	// The graceful stop cancelled the lease: the rendezvous drops the
	// client without waiting for expiry.
	sim.Run(time.Minute)

	pub.Restart()
	sim.Run(2 * time.Minute)
	if !pub.Connected() {
		t.Fatal("edge did not rejoin after Restart")
	}

	// The restarted publisher re-publishes; discovery works end to end.
	pub.PublishResource("Restartable", nil)
	sim.Run(2 * time.Minute)
	searcher.FlushCache()
	advs, _, err := searcher.Discover("Resource", "Name", "Restartable", time.Minute)
	if err != nil || len(advs) == 0 {
		t.Fatalf("discovery after rejoin: advs=%d err=%v", len(advs), err)
	}
}

// TestRendezvousKillRestartReconverge kills a super-peer, lets the overlay
// notice, restarts it and asserts the peerview re-converges to full size.
func TestRendezvousKillRestartReconverge(t *testing.T) {
	sim := newSim(t, 5)
	sim.Start()
	defer sim.Stop()
	sim.Run(20 * time.Minute)

	victim := sim.Rendezvous(2)
	if victim.PeerViewSize() != 4 {
		t.Fatalf("view not converged before kill: %d", victim.PeerViewSize())
	}

	victim.Kill()
	if victim.Started() {
		t.Fatal("peer still started after Kill")
	}
	if n := sim.PendingCallbacks(victim); n != 0 {
		t.Fatalf("killed rendezvous owns %d pending callbacks, want 0", n)
	}
	sim.Run(5 * time.Minute)

	victim.Restart()
	if victim.PeerViewSize() != 0 {
		t.Fatalf("restarted view not cold: %d entries", victim.PeerViewSize())
	}
	sim.Run(20 * time.Minute)
	if got := victim.PeerViewSize(); got != 4 {
		t.Fatalf("peerview did not re-converge after restart: %d, want 4", got)
	}
	for i := 0; i < sim.NumRendezvous(); i++ {
		if got := sim.Rendezvous(i).PeerViewSize(); got != 4 {
			t.Fatalf("rdv%d view = %d after heal, want 4", i, got)
		}
	}
}

// TestRestartDeterministic replays a kill+restart scenario twice under the
// same seed and asserts identical outcomes — the lifecycle verbs are part
// of the engine's replay contract.
func TestRestartDeterministic(t *testing.T) {
	run := func() (uint64, uint64, int) {
		sim, err := NewSimulation(SimOptions{Seed: 17, Rendezvous: 5})
		if err != nil {
			t.Fatal(err)
		}
		sim.Start()
		defer sim.Stop()
		sim.Run(15 * time.Minute)
		sim.Rendezvous(2).Kill()
		sim.Run(5 * time.Minute)
		sim.Rendezvous(2).Restart()
		sim.Run(20 * time.Minute)
		return sim.Steps(), sim.Messages(), sim.Rendezvous(2).PeerViewSize()
	}
	s1, m1, v1 := run()
	s2, m2, v2 := run()
	if s1 != s2 || m1 != m2 || v1 != v2 {
		t.Fatalf("kill+restart replay diverged: (%d,%d,%d) vs (%d,%d,%d)",
			s1, m1, v1, s2, m2, v2)
	}
}

// TestAddEdgeLiveJoin adds an edge while virtual time runs and checks it
// leases and discovers immediately.
func TestAddEdgeLiveJoin(t *testing.T) {
	sim := newSim(t, 3, 0)
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)
	sim.Edge(0).PublishResource("EarlyBird", nil)
	sim.Run(2 * time.Minute)

	late, err := sim.AddEdge("latecomer", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", sim.NumEdges())
	}
	sim.Run(2 * time.Minute)
	if !late.Connected() {
		t.Fatal("live-joined edge did not lease")
	}
	advs, _, err := late.Discover("Resource", "Name", "EarlyBird", time.Minute)
	if err != nil || len(advs) == 0 {
		t.Fatalf("live-joined edge discovery: advs=%d err=%v", len(advs), err)
	}

	if _, err := sim.AddEdge("bad", 99); err == nil {
		t.Fatal("AddEdge accepted an out-of-range rendezvous")
	}
}

// TestStopLeaksNothing is the leak-regression gate: stop every peer of a
// busy overlay — leases held, a query in flight — and assert the scheduler
// ledger holds zero service-owned callbacks for every one of them.
func TestStopLeaksNothing(t *testing.T) {
	sim := newSim(t, 4, 0, 3)
	sim.Start()
	sim.Run(15 * time.Minute)

	client := sim.Edge(1)
	if !client.Connected() {
		t.Fatal("edge holds no lease to cancel")
	}
	// Leave a query pending, then tear everything down.
	if err := client.n.Discovery.Query("Resource", "Name", "nothing-has-this",
		func(discovery.Result) {}, func() {}); err != nil {
		t.Fatal(err)
	}
	sim.Stop()

	peers := make([]*Peer, 0, sim.NumRendezvous()+sim.NumEdges())
	for i := 0; i < sim.NumRendezvous(); i++ {
		peers = append(peers, sim.Rendezvous(i))
	}
	for i := 0; i < sim.NumEdges(); i++ {
		peers = append(peers, sim.Edge(i))
	}
	for _, p := range peers {
		if n := sim.PendingCallbacks(p); n != 0 {
			t.Errorf("peer %s owns %d pending callbacks after Stop, want 0",
				p.Name(), n)
		}
	}
}
