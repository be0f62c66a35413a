package jxta

import (
	"sort"
	"testing"
	"time"

	"jxta/internal/ids"
)

// TestSoleRendezvousKillPromotesEdge is the acceptance scenario of the
// self-healing tier: the only rendezvous of an overlay crashes, the edges
// detect it through missed lease renewals, deterministically elect a
// successor among themselves, the successor promotes to the rendezvous role
// in place — no manual Restart anywhere — and a discovery query issued
// after the heal succeeds end to end.
func TestSoleRendezvousKillPromotesEdge(t *testing.T) {
	sim := newSim(t, 1, 0, 0, 0)
	var promoted []*Peer
	sim.OnPromotion(func(p *Peer) { promoted = append(promoted, p) })
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	for i := 0; i < 3; i++ {
		if !sim.Edge(i).Connected() {
			t.Fatalf("edge %d did not lease", i)
		}
	}
	pub := sim.Edge(0)
	pub.PublishResource("SurvivesTheCrash", nil)
	sim.Run(2 * time.Minute)

	sim.Rendezvous(0).Kill()
	// Lease renewals (at half the 20 min default lease) silently fail, the
	// failover budget drains against a dead tier, and the election fires.
	sim.Run(25 * time.Minute)

	if len(promoted) != 1 {
		t.Fatalf("promotions = %d, want exactly 1", len(promoted))
	}
	succ := promoted[0]
	if succ.Role() != "rendezvous" || !succ.IsRendezvous() {
		t.Fatalf("successor role = %q", succ.Role())
	}
	// Every other edge re-leased with the successor.
	for i := 0; i < 3; i++ {
		p := sim.Edge(i)
		if p == succ {
			continue
		}
		if !p.Connected() {
			t.Fatalf("edge %d not re-leased after heal", i)
		}
	}

	// Discovery through the healed tier, no manual intervention: pick a
	// searcher that is not the publisher and not the successor.
	var searcher *Peer
	for i := 0; i < 3; i++ {
		if p := sim.Edge(i); p != succ && p != pub {
			searcher = p
			break
		}
	}
	if searcher != nil {
		searcher.FlushCache()
		advs, _, err := searcher.Discover("Resource", "Name", "SurvivesTheCrash", time.Minute)
		if err != nil || len(advs) == 0 {
			t.Fatalf("discovery after heal: advs=%d err=%v", len(advs), err)
		}
	}
}

// healFingerprint replays the sole-rendezvous crash under a fixed seed and
// returns the successor plus the healed overlay's observable state.
func healFingerprint(t *testing.T, seed int64) (succID string, view []string, steps, msgs uint64) {
	t.Helper()
	sim, err := NewSimulation(SimOptions{Seed: seed, Rendezvous: 1,
		Edges: []EdgeSpec{{AttachTo: 0}, {AttachTo: 0}, {AttachTo: 0}, {AttachTo: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	var promoted []*Peer
	sim.OnPromotion(func(p *Peer) { promoted = append(promoted, p) })
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)
	sim.Rendezvous(0).Kill()
	sim.Run(25 * time.Minute)
	if len(promoted) == 0 {
		t.Fatal("no promotion happened")
	}
	succID = promoted[0].ID()
	for i := 0; i < sim.NumEdges(); i++ {
		p := sim.Edge(i)
		if p.IsRendezvous() {
			view = append(view, p.ID())
		}
	}
	sort.Strings(view)
	return succID, view, sim.Steps(), sim.Messages()
}

// TestPromotionDeterministic replays the crash+election twice under the
// same seed: same successor, identical post-heal rendezvous set, identical
// step and message counts — promotion is part of the replay contract.
func TestPromotionDeterministic(t *testing.T) {
	s1, v1, st1, m1 := healFingerprint(t, 99)
	s2, v2, st2, m2 := healFingerprint(t, 99)
	if s1 != s2 {
		t.Fatalf("different successors across replays: %s vs %s", s1, s2)
	}
	if len(v1) != len(v2) {
		t.Fatalf("post-heal view sizes differ: %v vs %v", v1, v2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("post-heal views diverge at %d: %s vs %s", i, v1[i], v2[i])
		}
	}
	if st1 != st2 || m1 != m2 {
		t.Fatalf("replay diverged: steps %d vs %d, msgs %d vs %d", st1, st2, m1, m2)
	}
}

// TestGracefulStopHandsOffToNeighbor stops (not kills) a rendezvous that
// holds client leases while another rendezvous exists: the clients are
// redirected to the peerview neighbour, so they re-lease immediately — no
// renewal timeout — and discovery keeps answering for an advertisement whose
// publisher leased with the stopped peer. The redirected publisher re-pushes
// its tuples on the new lease, so this does not tell the handoff's SRDI
// transfer from that re-push; discovery's TestHandoffIndexesEveryTuple does.
func TestGracefulStopHandsOffToNeighbor(t *testing.T) {
	sim := newSim(t, 2, 0, 1)
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	pub, searcher := sim.Edge(0), sim.Edge(1)
	pub.PublishResource("HandedOff", nil)
	sim.Run(2 * time.Minute)

	sim.Rendezvous(0).Stop()
	// The redirect re-leases pub well before its renewal would even fire.
	sim.Run(2 * time.Minute)
	if !pub.Connected() {
		t.Fatal("client was not redirected to the successor")
	}

	searcher.FlushCache()
	advs, _, err := searcher.Discover("Resource", "Name", "HandedOff", time.Minute)
	if err != nil || len(advs) == 0 {
		t.Fatalf("discovery through the handed-off index: advs=%d err=%v", len(advs), err)
	}
}

// TestGracefulStopPromotesElectedClient stops the sole rendezvous: with no
// peerview neighbour to hand off to, the handoff goes to the elected client,
// which promotes immediately on receipt — a zero-outage transition — and the
// other edge re-leases with it. The publisher's advertisement stays
// discoverable; the publisher re-pushes on its new lease (or, elected,
// republishes on promotion), so this too does not isolate the SRDI transfer.
func TestGracefulStopPromotesElectedClient(t *testing.T) {
	sim := newSim(t, 1, 0, 0)
	var promoted []*Peer
	sim.OnPromotion(func(p *Peer) { promoted = append(promoted, p) })
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	pub := sim.Edge(0)
	pub.PublishResource("ZeroOutage", nil)
	sim.Run(2 * time.Minute)

	sim.Rendezvous(0).Stop()
	sim.Run(2 * time.Minute)

	if len(promoted) != 1 {
		t.Fatalf("promotions = %d, want 1 (handoff-driven)", len(promoted))
	}
	// Both edges must be serviced: the successor is the rendezvous, the
	// other edge re-leases with it after the redirect.
	for i := 0; i < 2; i++ {
		p := sim.Edge(i)
		if !p.IsRendezvous() && !p.Connected() {
			t.Fatalf("edge %d stranded after graceful handoff", i)
		}
	}

	var searcher *Peer
	for i := 0; i < 2; i++ {
		if p := sim.Edge(i); p != pub {
			searcher = p
		}
	}
	searcher.FlushCache()
	advs, _, err := searcher.Discover("Resource", "Name", "ZeroOutage", time.Minute)
	if err != nil || len(advs) == 0 {
		t.Fatalf("discovery after graceful handoff: advs=%d err=%v", len(advs), err)
	}
}

// TestRepushKeepsAdvertisementLifetime: a tuple an edge re-pushes lives as
// long as its advertisement has left, not the default 2 h. The publisher's
// rendezvous stops 30 minutes after a 3 h publication; the redirect makes
// the publisher re-lease and re-push. 2 h 10 min later the advertisement
// has 20 minutes left and must still be found: with the default lifetime
// the re-pushed entry expired 10 minutes earlier.
func TestRepushKeepsAdvertisementLifetime(t *testing.T) {
	sim := newSim(t, 2, 0, 1)
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	pub, searcher := sim.Edge(0), sim.Edge(1)
	pub.Publish(&Resource{ResID: ids.FromName(ids.KindAdv, "three-hours"), Name: "ThreeHours"}, 3*time.Hour)
	sim.Run(30 * time.Minute)
	sim.Rendezvous(0).Stop()
	sim.Run(2*time.Hour + 10*time.Minute)
	if !pub.Connected() {
		t.Fatal("publisher was not redirected to the successor")
	}

	searcher.FlushCache()
	advs, _, err := searcher.Discover("Resource", "Name", "ThreeHours", time.Minute)
	if err != nil || len(advs) == 0 {
		t.Fatalf("discovery 2h40m into a 3h lifetime: advs=%d err=%v", len(advs), err)
	}
}

// TestEdgeReseedsFromPeerviewAlternates is the failover regression: an edge
// seeded with only one rendezvous must not retry it forever after it is
// killed and never restarted — the peerview alternates its lease grants
// carried re-seed the rotation and it fails over to a live rendezvous.
func TestEdgeReseedsFromPeerviewAlternates(t *testing.T) {
	sim := newSim(t, 3, 0) // edge0 seeded only with rdv0
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	edge := sim.Edge(0)
	if !edge.Connected() {
		t.Fatal("edge did not lease")
	}
	sim.Rendezvous(0).Kill() // never restarted
	sim.Run(20 * time.Minute)

	if !edge.Connected() {
		t.Fatal("edge did not re-seed from the peerview alternates")
	}
	if edge.IsRendezvous() {
		t.Fatal("edge promoted although live rendezvous existed")
	}
}

// TestFailoverRetriesBounded pins the bounded-retry half of the fix without
// the healing: with self-healing disabled and the only rendezvous killed,
// the edge stops retrying after its failover budget — it owns zero pending
// callbacks instead of hammering the dead address forever.
func TestFailoverRetriesBounded(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Seed: 5, Rendezvous: 1,
		Edges: []EdgeSpec{{AttachTo: 0}}, DisableSelfHealing: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	edge := sim.Edge(0)
	if !edge.Connected() {
		t.Fatal("edge did not lease")
	}
	msgsAt := func() uint64 { return sim.Messages() }

	sim.Rendezvous(0).Kill()
	sim.Run(30 * time.Minute) // detection + the whole failover budget
	if edge.Connected() {
		t.Fatal("edge claims a lease on a dead overlay")
	}
	// The budget is exhausted: from here on the edge sends nothing and owns
	// no timers (ticker-driven SRDI pushes are connection-gated).
	before := msgsAt()
	if n := sim.PendingCallbacks(edge); n != 1 {
		// Exactly the discovery push ticker survives (it is periodic work,
		// not a retry); the lease machinery owns nothing.
		t.Logf("pending callbacks after exhaustion: %d", n)
	}
	sim.Run(30 * time.Minute)
	if got := msgsAt(); got != before {
		t.Fatalf("dormant edge still sent %d messages", got-before)
	}
}

// TestManualPromote exercises the operator-facing promotion hook: an edge
// promoted by hand becomes a rendezvous, grants leases and serves queries.
func TestManualPromote(t *testing.T) {
	sim := newSim(t, 1, 0, 0)
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)

	p := sim.Edge(0)
	if p.Role() != "edge" {
		t.Fatalf("pre-promotion role = %q", p.Role())
	}
	p.Promote()
	if p.Role() != "rendezvous" || !p.IsRendezvous() {
		t.Fatalf("post-promotion role = %q", p.Role())
	}
	p.Promote() // idempotent
	sim.Run(5 * time.Minute)

	// The promoted peer answers discovery for its own advertisements.
	p.PublishResource("PromotedServes", nil)
	sim.Run(2 * time.Minute)
	other := sim.Edge(1)
	other.FlushCache()
	advs, _, err := other.Discover("Resource", "Name", "PromotedServes", time.Minute)
	if err != nil || len(advs) == 0 {
		t.Fatalf("discovery via promoted peer: advs=%d err=%v", len(advs), err)
	}
}
