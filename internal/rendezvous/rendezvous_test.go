package rendezvous

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

var testGroup = ids.FromName(ids.KindGroup, "NetPeerGroup")

type rdvPeer struct {
	id  ids.ID
	ep  *endpoint.Endpoint
	pv  *peerview.PeerView
	svc *Service
	tr  *transport.Sim
}

type edgePeer struct {
	id  ids.ID
	ep  *endpoint.Endpoint
	svc *Service
	tr  *transport.Sim
}

// newRdvOverlay builds n rendezvous peers (chain seeds) with running
// peerviews and rendezvous services.
func newRdvOverlay(t testing.TB, sched *simnet.Scheduler, net *transport.Network, n int) []*rdvPeer {
	t.Helper()
	return newRdvOverlayCfg(t, sched, net, n, DefaultConfig())
}

// newRdvOverlayCfg is newRdvOverlay with an explicit lease config (the
// self-healing tests need SelfHeal on the granting side).
func newRdvOverlayCfg(t testing.TB, sched *simnet.Scheduler, net *transport.Network, n int, cfg Config) []*rdvPeer {
	t.Helper()
	peers := make([]*rdvPeer, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rdv%d", i)
		e := sched.NewEnv(name)
		tr, err := net.Attach(name, netmodel.Site(i%netmodel.NumSites))
		if err != nil {
			t.Fatal(err)
		}
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup, Name: name,
			Address: string(tr.Addr())}
		ep := endpoint.New(e, id, tr)
		var seeds []peerview.Seed
		if i > 0 {
			seeds = []peerview.Seed{{ID: peers[i-1].id, Addr: peers[i-1].tr.Addr()}}
		}
		pv := peerview.New(e, ep, advstore.New(), adv, peerview.DefaultConfig(), seeds)
		svc := NewRendezvous(e, ep, pv, cfg)
		peers[i] = &rdvPeer{id: id, ep: ep, pv: pv, svc: svc, tr: tr}
		pv.Start()
		svc.Start()
	}
	return peers
}

func newEdge(t testing.TB, sched *simnet.Scheduler, net *transport.Network, name string, seeds []peerview.Seed, cfg Config) *edgePeer {
	t.Helper()
	e := sched.NewEnv(name)
	tr, err := net.Attach(name, netmodel.Site(0))
	if err != nil {
		t.Fatal(err)
	}
	id := ids.NewRandom(ids.KindPeer, e.Rand())
	ep := endpoint.New(e, id, tr)
	svc := NewEdge(e, ep, seeds, cfg)
	return &edgePeer{id: id, ep: ep, svc: svc, tr: tr}
}

// clientsOf returns a service's client table by ID; an edge has none.
func clientsOf(s *Service) map[ids.ID]clientLease {
	if s.srv == nil {
		return nil
	}
	out := make(map[ids.ID]clientLease, len(s.srv.clients))
	for _, cl := range s.srv.clients {
		out[cl.ID] = cl
	}
	return out
}

func TestDirectionString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Fatal("direction strings wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg != DefaultConfig() {
		t.Fatalf("withDefaults = %+v", cfg)
	}
	odd := Config{LeaseDuration: time.Minute, ResponseTimeout: time.Second}
	got := odd.withDefaults()
	if got.FailoverAttempts != DefaultConfig().FailoverAttempts {
		t.Fatal("zero FailoverAttempts not defaulted")
	}
	if got.LeaseDuration != time.Minute {
		t.Fatal("valid LeaseDuration overwritten")
	}
}

func TestEdgeAcquiresLease(t *testing.T) {
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, DefaultConfig())
	var events []bool
	edge.svc.AddLeaseListener(func(rdv ids.ID, connected bool) {
		if !rdv.Equal(rdvs[0].id) {
			t.Errorf("lease event about wrong rdv")
		}
		events = append(events, connected)
	})
	edge.svc.Start()
	sched.Run(time.Minute)
	if got, ok := edge.svc.ConnectedRdv(); !ok || !got.Equal(rdvs[0].id) {
		t.Fatal("edge not connected to its rendezvous")
	}
	if !rdvs[0].svc.HasClient(edge.id) {
		t.Fatal("rendezvous does not list the edge as client")
	}
	if len(events) != 1 || !events[0] {
		t.Fatalf("lease events = %v", events)
	}
}

func TestLeaseRenewalKeepsClientAlive(t *testing.T) {
	sched := simnet.NewScheduler(2)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	cfg := Config{LeaseDuration: 2 * time.Minute}
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, cfg)
	edge.svc.Start()
	// Run far past several lease durations: renewals must keep the client.
	sched.Run(20 * time.Minute)
	if !rdvs[0].svc.HasClient(edge.id) {
		t.Fatal("client lapsed despite renewals")
	}
}

func TestEdgeFailoverToSecondSeed(t *testing.T) {
	sched := simnet.NewScheduler(3)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 2)
	seeds := []peerview.Seed{
		{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()},
		{ID: rdvs[1].id, Addr: rdvs[1].tr.Addr()},
	}
	cfg := Config{LeaseDuration: 2 * time.Minute, ResponseTimeout: 10 * time.Second}
	edge := newEdge(t, sched, net, "edge0", seeds, cfg)
	edge.svc.Start()
	sched.Run(time.Minute)
	if got, _ := edge.svc.ConnectedRdv(); !got.Equal(rdvs[0].id) {
		t.Fatal("edge did not connect to first seed")
	}
	// Kill rdv0: renewals fail, edge must fail over to rdv1.
	rdvs[0].pv.Stop()
	rdvs[0].svc.Stop()
	rdvs[0].tr.Close()
	sched.Run(20 * time.Minute)
	got, ok := edge.svc.ConnectedRdv()
	if !ok || !got.Equal(rdvs[1].id) {
		t.Fatalf("edge did not fail over: connected=%v to %s", ok, got.Short())
	}
}

func TestEdgeStopCancelsLease(t *testing.T) {
	sched := simnet.NewScheduler(4)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, DefaultConfig())
	edge.svc.Start()
	sched.Run(time.Minute)
	edge.svc.Stop()
	sched.Run(2 * time.Minute)
	if rdvs[0].svc.HasClient(edge.id) {
		t.Fatal("lease survived explicit cancel")
	}
	if _, ok := edge.svc.ConnectedRdv(); ok {
		t.Fatal("edge still connected after Stop")
	}
}

func TestClientSweepExpiresSilentEdges(t *testing.T) {
	sched := simnet.NewScheduler(5)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	cfg := Config{LeaseDuration: 2 * time.Minute}
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, cfg)
	edge.svc.Start()
	sched.Run(time.Minute)
	// Edge dies without cancelling.
	edge.svc.cli.cancelTimers()
	edge.svc.started = false
	edge.tr.Close()
	sched.Run(30 * time.Minute)
	if rdvs[0].svc.HasClient(edge.id) {
		t.Fatal("dead edge's lease never swept")
	}
	if len(clientsOf(rdvs[0].svc)) != 0 {
		t.Fatal("clients list not empty")
	}
}

func TestEdgesDoNotGrantLeases(t *testing.T) {
	sched := simnet.NewScheduler(6)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	e1 := newEdge(t, sched, net, "e1", nil, DefaultConfig())
	e2 := newEdge(t, sched, net, "e2",
		[]peerview.Seed{{ID: e1.id, Addr: e1.tr.Addr()}}, DefaultConfig())
	e2.svc.Start()
	sched.Run(5 * time.Minute)
	if _, ok := e2.svc.ConnectedRdv(); ok {
		t.Fatal("edge obtained a lease from another edge")
	}
}

func TestWalkVisitsPeersInOrder(t *testing.T) {
	sched := simnet.NewScheduler(7)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 6)
	sched.Run(10 * time.Minute) // converge peerviews

	// Global ID order.
	order := make([]ids.ID, len(rdvs))
	byID := map[ids.ID]*rdvPeer{}
	for i, p := range rdvs {
		order[i] = p.id
		byID[p.id] = p
	}
	ids.SortIDs(order)

	var visited []ids.ID
	for _, p := range rdvs {
		p := p
		p.svc.SetWalkHandler("svc", func(origin ids.ID, dir Direction, body *message.Message) bool {
			visited = append(visited, p.id)
			return false
		})
	}
	// Walk up from the lowest peer: must visit the rest in ascending order.
	src := byID[order[0]]
	src.svc.Walk(Up, 10, "svc", message.New().AddString("x", "y", "z"))
	sched.Run(sched.Now() + time.Minute)
	if len(visited) != len(rdvs)-1 {
		t.Fatalf("walk visited %d peers, want %d", len(visited), len(rdvs)-1)
	}
	for i, id := range visited {
		if !id.Equal(order[i+1]) {
			t.Fatalf("walk order wrong at %d", i)
		}
	}
}

func TestWalkTTLBounds(t *testing.T) {
	sched := simnet.NewScheduler(8)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 8)
	sched.Run(10 * time.Minute)
	order := make([]ids.ID, len(rdvs))
	byID := map[ids.ID]*rdvPeer{}
	for i, p := range rdvs {
		order[i] = p.id
		byID[p.id] = p
	}
	ids.SortIDs(order)
	count := 0
	for _, p := range rdvs {
		p.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool {
			count++
			return false
		})
	}
	byID[order[0]].svc.Walk(Up, 3, "svc", message.New())
	sched.Run(sched.Now() + time.Minute)
	if count != 3 {
		t.Fatalf("TTL=3 walk visited %d peers", count)
	}
}

func TestWalkStopsWhenHandlerSatisfied(t *testing.T) {
	sched := simnet.NewScheduler(9)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 6)
	sched.Run(10 * time.Minute)
	order := make([]ids.ID, len(rdvs))
	byID := map[ids.ID]*rdvPeer{}
	for i, p := range rdvs {
		order[i] = p.id
		byID[p.id] = p
	}
	ids.SortIDs(order)
	count := 0
	for _, p := range rdvs {
		p.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool {
			count++
			return count >= 2 // satisfied at the second hop
		})
	}
	byID[order[0]].svc.Walk(Up, 100, "svc", message.New())
	sched.Run(sched.Now() + time.Minute)
	if count != 2 {
		t.Fatalf("walk continued after satisfaction: %d visits", count)
	}
}

func TestWalkDown(t *testing.T) {
	sched := simnet.NewScheduler(10)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 5)
	sched.Run(10 * time.Minute)
	order := make([]ids.ID, len(rdvs))
	byID := map[ids.ID]*rdvPeer{}
	for i, p := range rdvs {
		order[i] = p.id
		byID[p.id] = p
	}
	ids.SortIDs(order)
	var visited []ids.ID
	for _, p := range rdvs {
		p := p
		p.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool {
			visited = append(visited, p.id)
			return false
		})
	}
	byID[order[len(order)-1]].svc.Walk(Down, 10, "svc", message.New())
	sched.Run(sched.Now() + time.Minute)
	if len(visited) != len(rdvs)-1 {
		t.Fatalf("down walk visited %d peers", len(visited))
	}
	for i, id := range visited {
		if !id.Equal(order[len(order)-2-i]) {
			t.Fatalf("down walk order wrong at %d", i)
		}
	}
}

func TestWalkBodyIntact(t *testing.T) {
	sched := simnet.NewScheduler(11)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 3)
	sched.Run(10 * time.Minute)
	order := make([]ids.ID, len(rdvs))
	byID := map[ids.ID]*rdvPeer{}
	for i, p := range rdvs {
		order[i] = p.id
		byID[p.id] = p
	}
	ids.SortIDs(order)
	var bodies []string
	var origins []ids.ID
	for _, p := range rdvs {
		p.svc.SetWalkHandler("disco", func(origin ids.ID, _ Direction, body *message.Message) bool {
			bodies = append(bodies, body.GetString("disco", "query"))
			origins = append(origins, origin)
			return false
		})
	}
	src := byID[order[0]]
	src.svc.Walk(Up, 5, "disco", message.New().AddString("disco", "query", "find-me"))
	sched.Run(sched.Now() + time.Minute)
	if len(bodies) != 2 {
		t.Fatalf("visits = %d", len(bodies))
	}
	for i := range bodies {
		if bodies[i] != "find-me" {
			t.Fatal("walk body corrupted")
		}
		if !origins[i].Equal(src.id) {
			t.Fatal("walk origin lost")
		}
	}
}

func TestWalkOnEdgeIsNoop(t *testing.T) {
	sched := simnet.NewScheduler(12)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	edge := newEdge(t, sched, net, "e", nil, DefaultConfig())
	edge.svc.Walk(Up, 5, "svc", message.New()) // must not panic
	sched.Run(time.Second)
	if net.Stats().Messages != 0 {
		t.Fatal("edge walk sent traffic")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	sched := simnet.NewScheduler(13)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	rdvs[0].svc.Start() // second start
	rdvs[0].svc.Stop()
	rdvs[0].svc.Stop() // second stop
	sched.Run(time.Minute)
}

func TestAddSeedAndConnectLate(t *testing.T) {
	// An edge started with no seeds joins later via AddSeed + Connect —
	// the live-join path cmd/jxta-node uses after the hello bootstrap.
	sched := simnet.NewScheduler(21)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	edge := newEdge(t, sched, net, "late-edge", nil, DefaultConfig())
	edge.svc.Start()
	sched.Run(2 * time.Minute)
	if _, ok := edge.svc.ConnectedRdv(); ok {
		t.Fatal("seedless edge connected to something")
	}
	edge.svc.AddSeed(peerview.Seed{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()})
	edge.svc.Connect()
	sched.Run(sched.Now() + time.Minute)
	if got, ok := edge.svc.ConnectedRdv(); !ok || !got.Equal(rdvs[0].id) {
		t.Fatal("late AddSeed+Connect did not lease")
	}
}

func TestConnectOnRendezvousIsNoop(t *testing.T) {
	sched := simnet.NewScheduler(22)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	rdvs[0].svc.Connect() // must not panic or send lease requests
	sched.Run(time.Minute)
}

// selfHealCfg is the lease config the self-healing tests share.
func selfHealCfg() Config {
	return Config{
		LeaseDuration:    2 * time.Minute,
		ResponseTimeout:  10 * time.Second,
		FailoverAttempts: 3,
		SelfHeal:         true,
	}
}

func TestFailoverBoundedWithoutSelfHeal(t *testing.T) {
	sched := simnet.NewScheduler(40)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 1)
	cfg := Config{LeaseDuration: 2 * time.Minute, ResponseTimeout: 10 * time.Second,
		FailoverAttempts: 3}
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, cfg)
	edge.svc.Start()
	sched.Run(time.Minute)
	if _, ok := edge.svc.ConnectedRdv(); !ok {
		t.Fatal("edge did not lease")
	}
	rdvs[0].pv.Stop()
	rdvs[0].svc.Abort()
	rdvs[0].tr.Close()
	sched.Run(20 * time.Minute)
	if !edge.svc.Dormant() {
		t.Fatal("edge never went dormant after exhausting its failover budget")
	}
	msgs := net.Stats().Messages
	sched.Run(sched.Now() + 30*time.Minute)
	if got := net.Stats().Messages; got != msgs {
		t.Fatalf("dormant edge still sent %d messages", got-msgs)
	}
	// Connect revives it with a fresh budget (nothing to lease from, but
	// the attempt cycle restarts).
	edge.svc.Connect()
	if edge.svc.Dormant() {
		t.Fatal("Connect did not revive the dormant edge")
	}
}

func TestGrantCarriesAlternatesAndRoster(t *testing.T) {
	sched := simnet.NewScheduler(41)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlayCfg(t, sched, net, 3, selfHealCfg())
	sched.Run(10 * time.Minute) // peerviews converge
	cfg := selfHealCfg()
	seeds := []peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}
	e1 := newEdge(t, sched, net, "e1", seeds, cfg)
	e2 := newEdge(t, sched, net, "e2", seeds, cfg)
	e1.svc.Start()
	e2.svc.Start()
	sched.Run(sched.Now() + 3*time.Minute) // lease + at least one renewal
	if got := len(e1.svc.Alternates()); got != 2 {
		t.Fatalf("e1 learned %d alternates, want 2", got)
	}
	roster := e1.svc.Roster()
	if len(roster) != 2 {
		t.Fatalf("e1 roster = %d entries, want both co-clients", len(roster))
	}
	for i := 1; i < len(roster); i++ {
		if !roster[i-1].ID.Less(roster[i].ID) {
			t.Fatal("roster not in ascending ID order")
		}
	}
}

func TestEdgeFailsOverToAlternateNotInSeeds(t *testing.T) {
	sched := simnet.NewScheduler(42)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlayCfg(t, sched, net, 2, selfHealCfg())
	sched.Run(10 * time.Minute)
	// Seeded ONLY with rdv0; rdv1 is reachable solely via the alternates.
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, selfHealCfg())
	edge.svc.Start()
	sched.Run(sched.Now() + time.Minute)
	if got, _ := edge.svc.ConnectedRdv(); !got.Equal(rdvs[0].id) {
		t.Fatal("edge did not lease with its seed")
	}
	rdvs[0].pv.Stop()
	rdvs[0].svc.Abort()
	rdvs[0].tr.Close()
	sched.Run(sched.Now() + 20*time.Minute)
	got, ok := edge.svc.ConnectedRdv()
	if !ok || !got.Equal(rdvs[1].id) {
		t.Fatalf("edge did not re-seed from alternates: connected=%v to %s", ok, got.Short())
	}
}

// TestPromotionElectionPolicies pins the successor election: every client
// picks the lowest ID of the same ID-sorted roster.
func TestPromotionElectionPolicies(t *testing.T) {
	a := peerview.Seed{ID: ids.FromName(ids.KindPeer, "a")}
	b := peerview.Seed{ID: ids.FromName(ids.KindPeer, "b")}
	if b.ID.Less(a.ID) {
		a, b = b, a
	}
	if got := pickSuccessor([]peerview.Seed{a, b}); !got.ID.Equal(a.ID) {
		t.Fatal("election did not pick the lowest-ID client")
	}
}

// TestPromoteSwapsRoleInPlace drives Service.Promote directly: the edge
// becomes a rendezvous, grants leases and owns the peerview it was handed.
func TestPromoteSwapsRoleInPlace(t *testing.T) {
	sched := simnet.NewScheduler(43)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	promotee := newEdge(t, sched, net, "promotee", nil, selfHealCfg())
	promotee.svc.Start()
	if promotee.svc.IsRendezvous() {
		t.Fatal("edge starts as rendezvous")
	}
	adv := &advertisement.Rdv{PeerID: promotee.id, GroupID: testGroup,
		Name: "promotee", Address: string(promotee.tr.Addr())}
	pv := peerview.New(sched.NewEnv("promotee-pv"), promotee.ep, advstore.New(), adv,
		peerview.DefaultConfig(), nil)
	promotee.svc.Promote(pv)
	if !promotee.svc.IsRendezvous() || promotee.svc.PeerView() != pv {
		t.Fatal("Promote did not swap the role")
	}
	if promotee.svc.m.promotions != 1 {
		t.Fatalf("%d promotions counted", promotee.svc.m.promotions)
	}
	// A fresh edge can now lease from the promoted peer.
	client := newEdge(t, sched, net, "client",
		[]peerview.Seed{{ID: promotee.id, Addr: promotee.tr.Addr()}}, selfHealCfg())
	client.svc.Start()
	sched.Run(sched.Now() + time.Minute)
	if got, ok := client.svc.ConnectedRdv(); !ok || !got.Equal(promotee.id) {
		t.Fatal("promoted peer does not grant leases")
	}
	if !promotee.svc.HasClient(client.id) {
		t.Fatal("promoted peer does not track its client")
	}
}

// TestGracefulHandoffTransfersLeaseTable stops a rendezvous holding leases
// while a second rendezvous is in its peerview: the successor imports the
// client table and the clients are redirected to it without waiting for
// their renewal timers.
func TestGracefulHandoffTransfersLeaseTable(t *testing.T) {
	sched := simnet.NewScheduler(44)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	// Build the rendezvous with self-healing lease configs.
	var rdvs []*rdvPeer
	{
		cfg := selfHealCfg()
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("rdv%d", i)
			e := sched.NewEnv(name)
			tr, err := net.Attach(name, netmodel.Site(i%netmodel.NumSites))
			if err != nil {
				t.Fatal(err)
			}
			id := ids.NewRandom(ids.KindPeer, e.Rand())
			adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup, Name: name,
				Address: string(tr.Addr())}
			ep := endpoint.New(e, id, tr)
			var seeds []peerview.Seed
			if i > 0 {
				seeds = []peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}
			}
			pv := peerview.New(e, ep, advstore.New(), adv, peerview.DefaultConfig(), seeds)
			svc := NewRendezvous(e, ep, pv, cfg)
			rdvs = append(rdvs, &rdvPeer{id: id, ep: ep, pv: pv, svc: svc, tr: tr})
			pv.Start()
			svc.Start()
		}
	}
	sched.Run(10 * time.Minute)
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, selfHealCfg())
	edge.svc.Start()
	sched.Run(sched.Now() + time.Minute)
	if !rdvs[0].svc.HasClient(edge.id) {
		t.Fatal("edge did not lease with rdv0")
	}

	rdvs[0].pv.Stop()
	rdvs[0].svc.Stop() // graceful: handoff + redirect
	sched.Run(sched.Now() + time.Minute)

	if !rdvs[1].svc.HasClient(edge.id) {
		t.Fatal("successor did not import the handed-off lease")
	}
	if got, ok := edge.svc.ConnectedRdv(); !ok || !got.Equal(rdvs[1].id) {
		t.Fatal("client was not redirected to the successor")
	}
}

// TestRosterAndSuccessorTakeTheLowestFreshIDs pins the rules that read the
// client table in ID order, on a lone self-healing rendezvous (no view
// neighbour) with more clients than a roster holds, leased in an order that
// is not the ID order: some leases expired but not yet swept, some without an
// address. A grant's Cli elements must be the maxRoster lowest-ID fresh
// clients, ascending; and a graceful stop must hand the table, ascending, to
// the lowest-ID fresh client and redirect every other unexpired client to it.
func TestRosterAndSuccessorTakeTheLowestFreshIDs(t *testing.T) {
	sched := simnet.NewScheduler(67)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdv := newRdvOverlayCfg(t, sched, net, 1, selfHealCfg())[0]
	type sent struct {
		to transport.Addr
		m  *message.Message
	}
	var out []sent
	net.OnSend = func(_, to transport.Addr, m *message.Message) {
		if endpoint.ServiceOf(m) == LeaseService {
			out = append(out, sent{to, m.Clone()})
		}
	}
	sched.Run(time.Second)

	// By rank in the ID order, every fifth client leases for a nanosecond
	// and every seventh from the second shares no address.
	var byName []ids.ID
	for i := 0; i < 3*maxRoster; i++ {
		byName = append(byName, ids.FromName(ids.KindPeer, fmt.Sprint("client-", i)))
	}
	ranked := slices.Clone(byName)
	ids.SortIDs(ranked)
	addr := func(id ids.ID) transport.Addr { return transport.Addr("sim://9/" + id.Short()) }
	expiring, silent := map[ids.ID]bool{}, map[ids.ID]bool{}
	var fresh, unexpired []ids.ID // ascending
	for rank, id := range ranked {
		expiring[id], silent[id] = rank%5 == 0, rank%7 == 1
		if !expiring[id] {
			unexpired = append(unexpired, id)
			if !silent[id] {
				fresh = append(fresh, id)
			}
		}
	}
	if fresh[0].Equal(ranked[0]) || len(fresh) <= maxRoster {
		t.Fatal("the model leaves the rules nothing to skip")
	}
	for _, id := range byName {
		rdv.ep.AddRoute(id, addr(id))
		asked := "60000000000"
		if expiring[id] {
			asked = "1"
		}
		m := new(lent).add(elemRequest, asked)
		if !silent[id] {
			m.add(elemAddr, string(addr(id)))
		}
		rdv.svc.receiveLease(id, &m.Message)
	}
	sched.Run(sched.Now() + time.Second) // the nanosecond leases end; the next sweep is far off
	for _, id := range ranked {
		if rdv.svc.HasClient(id) == expiring[id] {
			t.Fatalf("client %s: HasClient = %v, expiring = %v", id.Short(), !expiring[id], expiring[id])
		}
	}
	has := func(m *message.Message, name string) bool {
		_, ok := m.Get(leaseNS, name)
		return ok
	}
	seeds := func(m *message.Message, name string) []peerview.Seed {
		var got []peerview.Seed
		for _, el := range m.Elements() {
			if el.Namespace == leaseNS && el.Name == name {
				sd, _, ok := peerview.ParseRecordBytes(el.Data)
				if !ok {
					sd, ok = peerview.ParseSeedBytes(el.Data)
				}
				if !ok {
					t.Fatalf("unreadable %s element %q", name, el.Data)
				}
				got = append(got, sd.Clone())
			}
		}
		return got
	}
	want := func(what string, got []peerview.Seed, wantIDs []ids.ID) {
		t.Helper()
		ok := len(got) == len(wantIDs)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].ID.Equal(wantIDs[i]) && got[i].Addr == addr(wantIDs[i])
		}
		if !ok {
			t.Fatalf("%s = %v, want %v", what, got, wantIDs)
		}
	}

	// A renewal's grant rosters the lowest fresh IDs.
	out = nil
	last := fresh[len(fresh)-1]
	rdv.svc.receiveLease(last, &new(lent).add(elemRequest, "60000000000").add(elemAddr, string(addr(last))).Message)
	if len(out) != 1 || out[0].to != addr(last) || !has(out[0].m, elemGranted) {
		t.Fatalf("the renewal sent %d lease messages, want one grant to %s", len(out), addr(last))
	}
	want("the grant's roster", seeds(out[0].m, elemClient), fresh[:maxRoster])

	// A graceful stop elects the lowest fresh ID, hands it the other fresh
	// leases and redirects every other unexpired client to it.
	out = nil
	rdv.svc.Stop()
	succ := fresh[0]
	var handoffs int
	redirected := map[transport.Addr]bool{}
	for _, o := range out {
		switch {
		case has(o.m, elemHandoff):
			handoffs++
			if o.to != addr(succ) {
				t.Fatalf("the handoff went to %s, want the lowest fresh client %s", o.to, addr(succ))
			}
			want("the handed-off table", seeds(o.m, elemClient), fresh[1:])
		case has(o.m, elemRedirect):
			want("a redirect to "+string(o.to), seeds(o.m, elemRedirect), []ids.ID{succ})
			redirected[o.to] = true
		}
	}
	if handoffs != 1 {
		t.Fatalf("%d handoffs, want 1", handoffs)
	}
	for _, id := range ranked {
		if w := !expiring[id] && !id.Equal(succ); redirected[addr(id)] != w {
			t.Fatalf("client %s redirected = %v, want %v", id.Short(), !w, w)
		}
	}
	if len(redirected) != len(unexpired)-1 {
		t.Fatalf("%d clients redirected, want %d", len(redirected), len(unexpired)-1)
	}
}

// TestForgedNilHandoffIsRefused: the nil ID names no peer, so a handed-off
// lease naming urn:jxta:nil is refused where the record is read. Delivered
// beside a genuine one, it must leave the self-healing rendezvous with no
// route and no lease for the nil ID, while the genuine lease is imported.
func TestForgedNilHandoffIsRefused(t *testing.T) {
	sched := simnet.NewScheduler(59)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdv := newRdvOverlayCfg(t, sched, net, 1, selfHealCfg())[0]
	sched.Run(time.Second)
	handed := ids.FromName(ids.KindPeer, "handed-off")
	m := new(lent).add(elemHandoff, "1").
		add(elemClient, "urn:jxta:nil sim://9/forged 30000000000").
		add(elemClient, handed.String()+" sim://9/handed-off 30000000000")
	rdv.svc.receiveLease(ids.FromName(ids.KindPeer, "predecessor"), &m.Message)
	if addr, ok := rdv.ep.RouteTo(ids.Nil); ok {
		t.Fatalf("a forged handoff added a route for the nil ID, to %q", addr)
	}
	if rdv.svc.HasClient(ids.Nil) {
		t.Fatal("a forged handoff granted the nil ID a lease")
	}
	if !rdv.svc.HasClient(handed) {
		t.Fatal("the genuine lease in the same handoff was not imported")
	}
}

// TestForgedNilRedirectIsRefused: the nil ID names no peer, so a redirect, an
// alternate or a co-client naming urn:jxta:nil is refused where the record is
// read. Delivered to a leased self-healing edge, a forged grant and a forged
// redirect must leave it with no route for the nil ID, no nil entry in its
// alternates or roster, and its lease where it was.
func TestForgedNilRedirectIsRefused(t *testing.T) {
	sched := simnet.NewScheduler(61)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdv := newRdvOverlayCfg(t, sched, net, 1, selfHealCfg())[0]
	edge := newEdge(t, sched, net, "edge", []peerview.Seed{{ID: rdv.id, Addr: rdv.tr.Addr()}}, selfHealCfg())
	edge.svc.Start()
	sched.Run(time.Minute)
	if at, ok := edge.svc.ConnectedRdv(); !ok || at != rdv.id {
		t.Fatal("the edge holds no lease")
	}
	forged := "urn:jxta:nil sim://9/forged"
	grant := new(lent).add(elemGranted, "120000000000").add(elemAlt, forged).add(elemClient, forged)
	edge.svc.receiveLease(rdv.id, &grant.Message)
	redirect := new(lent).add(elemRedirect, forged)
	edge.svc.receiveLease(rdv.id, &redirect.Message)
	sched.Run(sched.Now() + time.Second)
	if addr, ok := edge.ep.RouteTo(ids.Nil); ok {
		t.Fatalf("a forged record added a route for the nil ID, to %q", addr)
	}
	for _, sd := range append(edge.svc.Alternates(), edge.svc.Roster()...) {
		if sd.ID.IsNil() {
			t.Fatalf("a forged record made the nil ID a tier member, at %q", sd.Addr)
		}
	}
	if at, ok := edge.svc.ConnectedRdv(); !ok || at != rdv.id {
		t.Fatalf("a forged redirect moved the lease to %v, %v", at, ok)
	}
}

func TestSeedRoundTrip(t *testing.T) {
	sd := peerview.Seed{ID: ids.FromName(ids.KindPeer, "x"), Addr: "sim://x"}
	got, ok := peerview.ParseSeedBytes(sd.AppendEncode(nil))
	if !ok || !got.ID.Equal(sd.ID) || got.Addr != sd.Addr {
		t.Fatalf("seed round-trip: %+v ok=%v", got, ok)
	}
	if _, ok := peerview.ParseSeedBytes([]byte("garbage")); ok {
		t.Fatal("ParseSeedBytes accepted garbage")
	}
	if _, ok := peerview.ParseSeedBytes([]byte("not-an-id sim://x")); ok {
		t.Fatal("ParseSeedBytes accepted a bad ID")
	}
}

// TestElectionSkipsDeadSuccessor pins the stale-roster recovery chain: the
// elected successor is itself dead, so the waiting edge strikes it from the
// roster, falls back to the candidate rotation, and the next election picks
// the next candidate — here, itself, so it promotes.
func TestElectionSkipsDeadSuccessor(t *testing.T) {
	sched := simnet.NewScheduler(45)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlayCfg(t, sched, net, 1, selfHealCfg())
	seeds := []peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}
	e1 := newEdge(t, sched, net, "e1", seeds, selfHealCfg())
	e2 := newEdge(t, sched, net, "e2", seeds, selfHealCfg())
	// Wire the promote hook the node layer normally installs.
	for _, e := range []*edgePeer{e1, e2} {
		e := e
		e.svc.SetPromoteHook(func() {
			adv := &advertisement.Rdv{PeerID: e.id, GroupID: testGroup,
				Name: "promoted", Address: string(e.tr.Addr())}
			e.svc.Promote(peerview.New(sched.NewEnv("pv-"+e.id.Short()),
				e.ep, advstore.New(), adv, peerview.DefaultConfig(), nil))
		})
	}
	e1.svc.Start()
	e2.svc.Start()
	// Let both lease and renew at least once so both rosters carry both.
	sched.Run(4 * time.Minute)
	lower, higher := e1, e2
	if e2.id.Less(e1.id) {
		lower, higher = e2, e1
	}
	if len(higher.svc.Roster()) != 2 {
		t.Fatalf("roster = %d entries before the crash", len(higher.svc.Roster()))
	}
	// The would-be successor (lowest ID) dies silently, then the rendezvous
	// crashes before the survivor's roster refreshes.
	lower.svc.cli.cancelTimers()
	lower.svc.started = false
	lower.tr.Close()
	rdvs[0].pv.Stop()
	rdvs[0].svc.Abort()
	rdvs[0].tr.Close()

	sched.Run(sched.Now() + 30*time.Minute)
	if !higher.svc.IsRendezvous() {
		t.Fatal("survivor never promoted after the elected successor proved dead")
	}
	if higher.svc.Dormant() {
		t.Fatal("survivor dormant despite being electable")
	}
}

func TestDormantEdgeRevivedByTierProbe(t *testing.T) {
	// The flip side of rumor aging: a genuinely dormant edge must still be
	// revived by the tier probes sent inside its grace window — aging must
	// retire only identities that answer nothing, not sleeping bridges.
	sched := simnet.NewScheduler(56)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	cfg := DefaultConfig()
	cfg.LeaseDuration = 2 * time.Minute
	cfg.ResponseTimeout = 10 * time.Second
	cfg.FailoverAttempts = 3
	cfg.IslandMerge = true
	rdvs := newRdvOverlayCfg(t, sched, net, 2, cfg)
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[1].id, Addr: rdvs[1].tr.Addr()}}, cfg)
	edge.svc.Start()
	sched.Run(time.Minute)
	if got, ok := edge.svc.ConnectedRdv(); !ok || !got.Equal(rdvs[1].id) {
		t.Fatal("edge did not lease from its seed")
	}
	// The edge's only rendezvous dies; with no alternates the edge burns its
	// failover budget and goes dormant.
	rdvs[1].pv.Stop()
	rdvs[1].svc.Abort()
	rdvs[1].tr.Close()
	sched.Run(20 * time.Minute)
	if !edge.svc.Dormant() {
		t.Fatal("edge never went dormant")
	}
	// The surviving anchor hears a rumor naming the dormant edge (e.g. from
	// an old roster). Its first tier probe must wake the edge, which then
	// leases from the prober — before aging could retire it.
	rdvs[0].svc.rumorStore().add(peerview.NewRumor(peerview.Seed{
		ID: edge.id, Addr: edge.tr.Addr(),
	}))
	sched.Run(sched.Now() + 5*time.Minute)
	if edge.svc.Dormant() {
		t.Fatal("tier probe did not revive the dormant edge")
	}
	if got, ok := edge.svc.ConnectedRdv(); !ok || !got.Equal(rdvs[0].id) {
		t.Fatalf("revived edge not leased to the probing anchor (connected=%v)", ok)
	}
}

// TestReturnsToZeroState: the rendezvous service is small by construction,
// and holds the half of its role and nothing of the other. An edge — the
// lease *client* — has no server half, whether fresh, leased or dormant; it
// allocates no map by acquiring and renewing a lease, so between renewals it
// is quiescent with nothing to release; its walk-handler registrations are
// a slice. A rendezvous holds a server half and a zero client, whether built
// as one, promoted or restarted. On the granting side the client table is
// allocated by the first lease and drains when the edge departs.
func TestReturnsToZeroState(t *testing.T) {
	sched := simnet.NewScheduler(77)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	cfg := DefaultConfig()
	cfg.LeaseDuration = time.Minute
	rdvs := newRdvOverlayCfg(t, sched, net, 1, cfg)
	edge := newEdge(t, sched, net, "edge0",
		[]peerview.Seed{{ID: rdvs[0].id, Addr: rdvs[0].tr.Addr()}}, cfg)
	nobody := peerview.Seed{ID: ids.FromName(ids.KindPeer, "nobody"), Addr: "sim://9/nobody"}
	sleeper := newEdge(t, sched, net, "sleeper", []peerview.Seed{nobody}, cfg)
	promotee := newEdge(t, sched, net, "promotee", nil, cfg)
	isEdge := func(when string, s *Service) {
		t.Helper()
		if s.srv != nil || s.cli.core != &s.core {
			t.Fatalf("%s: server half %v, client half bound %v", when, s.srv != nil, s.cli.core != nil)
		}
	}
	isRendezvous := func(when string, s *Service) {
		t.Helper()
		if s.srv == nil || !reflect.ValueOf(s.cli).IsZero() {
			t.Fatalf("%s: server half %v, client half zero %v", when, s.srv != nil, reflect.ValueOf(s.cli).IsZero())
		}
		if s.srv.clients != nil {
			t.Fatalf("%s: client table allocated", when)
		}
	}
	isEdge("fresh edge", edge.svc)
	isRendezvous("fresh rendezvous", rdvs[0].svc)

	walked := 0
	edge.svc.SetWalkHandler("b", func(ids.ID, Direction, *message.Message) bool { return false })
	edge.svc.SetWalkHandler("a", func(ids.ID, Direction, *message.Message) bool { walked++; return true })

	for _, e := range []*edgePeer{edge, sleeper, promotee} {
		e.svc.Start()
	}
	sched.Run(5 * time.Minute) // acquire, then renew every 30 s; the sleeper runs out of attempts
	if _, ok := edge.svc.ConnectedRdv(); !ok {
		t.Fatal("edge holds no lease")
	}
	if !edge.svc.Quiescent() {
		t.Fatal("leased edge between renewals is not quiescent")
	}
	isEdge("leased edge after ten renewals", edge.svc)
	if !sleeper.svc.Dormant() || !sleeper.svc.Quiescent() {
		t.Fatalf("the edge with a dead seed: dormant %v, quiescent %v", sleeper.svc.Dormant(), sleeper.svc.Quiescent())
	}
	isEdge("dormant edge", sleeper.svc)
	if edge.svc.walkSvc != "a" || edge.svc.walkFn == nil || !edge.svc.walkFn(ids.Nil, Up, nil) || walked != 1 {
		t.Fatal("the walk handler registered last is not the one served")
	}

	if len(rdvs[0].svc.srv.clients) != 1 {
		t.Fatal("the grant did not allocate the client table")
	}
	edge.svc.Stop() // departs with a cancel
	sched.Run(sched.Now() + time.Minute)
	if len(rdvs[0].svc.srv.clients) != 0 {
		t.Fatal("the cancel did not empty the client table")
	}

	adv := &advertisement.Rdv{PeerID: promotee.id, GroupID: testGroup, Name: "promotee", Address: string(promotee.tr.Addr())}
	promotee.svc.Promote(peerview.New(sched.NewEnv("promotee-pv"), promotee.ep, advstore.New(), adv, peerview.DefaultConfig(), nil))
	isRendezvous("promoted edge", promotee.svc)
	for _, s := range []*Service{rdvs[0].svc, promotee.svc} {
		s.Stop()
		s.Reset()
		s.Start()
	}
	isRendezvous("restarted rendezvous", rdvs[0].svc)
	isRendezvous("restarted promoted edge", promotee.svc)
}
