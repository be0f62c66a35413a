package peerview

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// testRdv is one simulated rendezvous peer.
type testRdv struct {
	id  ids.ID
	adv *advertisement.Rdv
	ep  *endpoint.Endpoint
	pv  *PeerView
	tr  *transport.Sim
}

var testGroup = ids.FromName(ids.KindGroup, "NetPeerGroup")

// newOverlay builds n rendezvous peers over a uniform-latency simnet wired
// in a chain seed topology (peer i seeds on peer i-1), mirroring the paper's
// chain deployments. Peerviews are created but not started; they intern into
// one store of the overlay's own.
func newOverlay(t testing.TB, sched *simnet.Scheduler, n int, cfg Config) []*testRdv {
	t.Helper()
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	store := advstore.New()
	peers := make([]*testRdv, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rdv%d", i)
		e := sched.NewEnv(name)
		tr, err := net.Attach(name, netmodel.Site(i%netmodel.NumSites))
		if err != nil {
			t.Fatal(err)
		}
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup,
			Name: name, Address: string(tr.Addr())}
		ep := endpoint.New(e, id, tr)
		var seeds []Seed
		if i > 0 {
			seeds = []Seed{{ID: peers[i-1].id, Addr: peers[i-1].tr.Addr()}}
		}
		peers[i] = &testRdv{id: id, adv: adv, ep: ep, tr: tr,
			pv: New(e, ep, store, adv, cfg, seeds)}
	}
	return peers
}

// learn applies adv's encoding to p's view as a merge list element is
// applied, and reports whether the view gained an entry.
func (p *testRdv) learn(adv *advertisement.Rdv) bool {
	wire, _ := advertisement.EncodeXML(adv)
	size := p.pv.Size()
	p.pv.hear(wire, 0, true)
	return p.pv.Size() > size
}

// entryOf returns p's view entry for id, or nil.
func (p *testRdv) entryOf(id ids.ID) *entry {
	if i, ok := p.pv.find(id); ok {
		return p.pv.entries[i]
	}
	return nil
}

func startAll(peers []*testRdv) {
	for _, p := range peers {
		p.pv.Start()
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Interval != 30*time.Second {
		t.Errorf("PEERVIEW_INTERVAL = %v, want 30s", cfg.Interval)
	}
	if cfg.EntryExpiry != 20*time.Minute {
		t.Errorf("PVE_EXPIRATION = %v, want 20min", cfg.EntryExpiry)
	}
	if cfg.HappySize != 4 {
		t.Errorf("HAPPY_SIZE = %d, want 4", cfg.HappySize)
	}
}

func TestWithDefaultsFillsZeroes(t *testing.T) {
	if cfg := (Config{}).withDefaults(); cfg != DefaultConfig() {
		t.Fatalf("withDefaults = %+v", cfg)
	}
	custom := Config{Interval: time.Second, EntryExpiry: time.Minute,
		HappySize: 2, ReferralsPerProbe: 5}
	if custom.withDefaults() != custom {
		t.Fatal("withDefaults overwrote non-zero fields")
	}
}

func TestSmallOverlayConverges(t *testing.T) {
	sched := simnet.NewScheduler(42)
	peers := newOverlay(t, sched, 10, DefaultConfig())
	startAll(peers)
	sched.Run(10 * time.Minute)
	for i, p := range peers {
		if got := p.pv.Size(); got != 9 {
			t.Errorf("peer %d view size = %d, want 9 (r-1)", i, got)
		}
	}
}

func TestViewsConsistentAfterConvergence(t *testing.T) {
	sched := simnet.NewScheduler(7)
	peers := newOverlay(t, sched, 8, DefaultConfig())
	startAll(peers)
	sched.Run(10 * time.Minute)
	// Property (2): all local views list the same global membership.
	want := peers[0].pv.View()
	for _, p := range peers[1:] {
		got := p.pv.View()
		if len(got) != len(want) {
			t.Fatalf("view sizes differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("views diverge at position %d", i)
			}
		}
	}
}

func TestViewSortedIncludesSelf(t *testing.T) {
	sched := simnet.NewScheduler(3)
	peers := newOverlay(t, sched, 12, DefaultConfig())
	startAll(peers)
	sched.Run(8 * time.Minute)
	for _, p := range peers {
		view := p.pv.View()
		if !sort.SliceIsSorted(view, func(i, j int) bool { return view[i].Less(view[j]) }) {
			t.Fatal("View() not sorted")
		}
		found := false
		for _, id := range view {
			if id.Equal(p.id) {
				found = true
			}
		}
		if !found {
			t.Fatal("View() missing self")
		}
		if len(view) != p.pv.Size()+1 {
			t.Fatalf("View() length %d != Size()+1 = %d", len(view), p.pv.Size()+1)
		}
	}
}

func TestNeighborsAreAdjacentInIDOrder(t *testing.T) {
	sched := simnet.NewScheduler(9)
	peers := newOverlay(t, sched, 10, DefaultConfig())
	startAll(peers)
	sched.Run(8 * time.Minute)
	// Determine global sorted order.
	all := make([]ids.ID, len(peers))
	byID := map[ids.ID]*testRdv{}
	for i, p := range peers {
		all[i] = p.id
		byID[p.id] = p
	}
	ids.SortIDs(all)
	for pos, id := range all {
		lower, upper := byID[id].pv.Neighbors()
		if pos == 0 {
			if !lower.IsNil() {
				t.Fatal("lowest peer has a lower neighbour")
			}
		} else if !lower.Equal(all[pos-1]) {
			t.Fatalf("peer %d lower neighbour wrong", pos)
		}
		if pos == len(all)-1 {
			if !upper.IsNil() {
				t.Fatal("highest peer has an upper neighbour")
			}
		} else if !upper.Equal(all[pos+1]) {
			t.Fatalf("peer %d upper neighbour wrong", pos)
		}
	}
}

func TestEntriesExpireWithoutRefresh(t *testing.T) {
	// One isolated pair: a learns b, then b crashes; a's entry must be
	// removed after PVE_EXPIRATION.
	sched := simnet.NewScheduler(5)
	cfg := Config{Interval: 30 * time.Second, EntryExpiry: 2 * time.Minute}
	peers := newOverlay(t, sched, 2, cfg)
	startAll(peers)
	sched.Run(time.Minute)
	if peers[0].pv.Size() != 1 || peers[1].pv.Size() != 1 {
		t.Fatal("pair did not learn each other")
	}
	// Crash peer 1.
	peers[1].pv.Stop()
	peers[1].tr.Close()
	sched.Run(10 * time.Minute)
	if peers[0].pv.Size() != 0 {
		t.Fatalf("dead peer never expired: size=%d", peers[0].pv.Size())
	}
	if peers[0].pv.Contains(peers[1].id) {
		t.Fatal("Contains still true after expiry")
	}
}

func TestListenerObservesAddAndRemove(t *testing.T) {
	sched := simnet.NewScheduler(5)
	cfg := Config{Interval: 30 * time.Second, EntryExpiry: 2 * time.Minute}
	peers := newOverlay(t, sched, 2, cfg)
	var adds, removes int
	peers[0].pv.SetListener(func(kind EventKind, peer ids.ID, at time.Duration) {
		if !peer.Equal(peers[1].id) {
			t.Errorf("event about unexpected peer %s", peer.Short())
		}
		switch kind {
		case EventAdd:
			adds++
		case EventRemove:
			removes++
		}
	})
	startAll(peers)
	sched.Run(time.Minute)
	peers[1].pv.Stop()
	peers[1].tr.Close()
	sched.Run(10 * time.Minute)
	if adds == 0 || removes == 0 {
		t.Fatalf("adds=%d removes=%d, want both > 0", adds, removes)
	}
}

func TestEventKindString(t *testing.T) {
	if EventAdd.String() != "add" || EventRemove.String() != "remove" {
		t.Fatal("EventKind strings wrong")
	}
}

func TestTunedExpiryRetainsEntries(t *testing.T) {
	// Figure 4 (left): with PVE_EXPIRATION larger than the experiment,
	// entries never expire, so the view only grows.
	sched := simnet.NewScheduler(11)
	cfg := DefaultConfig()
	cfg.EntryExpiry = 365 * 24 * time.Hour
	peers := newOverlay(t, sched, 20, cfg)
	var removed int
	for _, p := range peers {
		p.pv.SetListener(func(kind EventKind, _ ids.ID, _ time.Duration) {
			if kind == EventRemove {
				removed++
			}
		})
	}
	startAll(peers)
	sched.Run(30 * time.Minute)
	if removed != 0 {
		t.Fatalf("tuned expiry still removed %d entries", removed)
	}
	for _, p := range peers {
		if p.pv.Size() != 19 {
			t.Fatalf("view size %d, want 19", p.pv.Size())
		}
	}
}

func TestStopHaltsProbing(t *testing.T) {
	sched := simnet.NewScheduler(13)
	peers := newOverlay(t, sched, 3, DefaultConfig())
	startAll(peers)
	sched.Run(2 * time.Minute)
	rounds := peers[0].pv.n.rounds
	peers[0].pv.Stop()
	sched.Run(5 * time.Minute)
	if peers[0].pv.n.rounds != rounds {
		t.Fatal("iterations continued after Stop")
	}
	// Idempotent stop + restart support.
	peers[0].pv.Stop()
	peers[0].pv.Start()
	sched.Run(sched.Now() + 2*time.Minute)
	if peers[0].pv.n.rounds <= rounds {
		t.Fatal("Start after Stop did not resume")
	}
}

func TestStartIdempotent(t *testing.T) {
	sched := simnet.NewScheduler(17)
	peers := newOverlay(t, sched, 2, DefaultConfig())
	peers[0].pv.Start()
	peers[0].pv.Start() // second call must not double the tick rate
	peers[1].pv.Start()
	sched.Run(5 * time.Minute)
	// 1 immediate + 10 ticks in 5 minutes (30s interval).
	if got := peers[0].pv.n.rounds; got > 12 {
		t.Fatalf("rounds = %d, double ticker suspected", got)
	}
}

func TestSelfAdvertisementIgnored(t *testing.T) {
	sched := simnet.NewScheduler(19)
	peers := newOverlay(t, sched, 2, DefaultConfig())
	p := peers[0]
	if p.learn(p.adv) {
		t.Fatal("self advertisement inserted")
	}
	if p.pv.Size() != 0 {
		t.Fatal("self advertisement counted")
	}
}

func TestUpsertKeepsOrderProperty(t *testing.T) {
	sched := simnet.NewScheduler(23)
	peers := newOverlay(t, sched, 1, DefaultConfig())
	p := peers[0]
	rng := sched.DeriveRand(99)
	for i := 0; i < 200; i++ {
		id := ids.NewRandom(ids.KindPeer, rng)
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup,
			Name: "x", Address: "sim://rennes/ghost"}
		p.learn(adv)
		// Re-learn half of them to exercise the refresh path.
		if i%2 == 0 {
			p.learn(adv)
		}
	}
	view := p.pv.View()
	if !sort.SliceIsSorted(view, func(i, j int) bool { return view[i].Less(view[j]) }) {
		t.Fatal("view order violated under random upserts")
	}
	if p.pv.Size() != 200 {
		t.Fatalf("size = %d, want 200", p.pv.Size())
	}
}

func TestReferralTriggersProbeNotDirectAdd(t *testing.T) {
	// Build three peers a,b,c manually: a probes b; b knows c and refers
	// it. a must not insert c until c answers a's probe.
	sched := simnet.NewScheduler(29)
	peers := newOverlay(t, sched, 3, Config{Interval: time.Hour}) // no auto loop
	a, b, c := peers[0], peers[1], peers[2]
	// b learns c directly.
	b.learn(c.adv)
	// a probes b: b responds + refers c; a probes c; c responds; a adds c.
	a.ep.AddRoute(b.id, b.tr.Addr())
	a.pv.sendProbe(b.id)
	// Run just past the probe/response exchange (1ms hops).
	sched.Run(3 * time.Millisecond)
	if a.pv.Contains(c.id) {
		t.Fatal("referral added entry before probe answered")
	}
	sched.Run(time.Second)
	if !a.pv.Contains(c.id) {
		t.Fatal("referred peer never added after probe")
	}
	if !a.pv.Contains(b.id) {
		t.Fatal("probed peer not added")
	}
}

func TestReferralRefreshesKnownEntry(t *testing.T) {
	sched := simnet.NewScheduler(31)
	peers := newOverlay(t, sched, 3, Config{Interval: time.Hour})
	a, b, c := peers[0], peers[1], peers[2]
	b.learn(c.adv)
	a.learn(c.adv)
	before := a.entryOf(c.id).renewed
	sched.Run(time.Minute) // advance the clock
	a.ep.AddRoute(b.id, b.tr.Addr())
	a.pv.sendProbe(b.id) // b will refer c, already known to a
	sched.Run(sched.Now() + time.Minute)
	after := a.entryOf(c.id).renewed
	if after <= before {
		t.Fatal("referral did not refresh known entry")
	}
}

func TestHappySizeSeedProbing(t *testing.T) {
	// With an empty view and one seed, every iteration probes the seed.
	sched := simnet.NewScheduler(37)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	e := sched.NewEnv("solo")
	tr, _ := net.Attach("solo", netmodel.Rennes)
	id := ids.NewRandom(ids.KindPeer, e.Rand())
	adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup, Name: "solo",
		Address: string(tr.Addr())}
	ep := endpoint.New(e, id, tr)
	ghostSeed := Seed{ID: ids.FromName(ids.KindPeer, "ghost"),
		Addr: "sim://rennes/ghost"}
	pv := New(e, ep, advstore.New(), adv, DefaultConfig(), []Seed{ghostSeed})
	pv.Start()
	sched.Run(5 * time.Minute)
	// 11 iterations, all unhappy -> 11 probes sent to the (dead) seed.
	if st := net.Stats(); st.Messages < 10 {
		t.Fatalf("only %d messages, seed probing not periodic", st.Messages)
	}
}

// TestPeerviewsKeepTheirOwnRuntimeSeeds: two peerviews built from one seed
// slice with spare capacity each keep the seed AddSeed gives them, and the
// caller's array is left as it was.
func TestPeerviewsKeepTheirOwnRuntimeSeeds(t *testing.T) {
	sched := simnet.NewScheduler(43)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	seeds := make([]Seed, 1, 4)
	seeds[0] = Seed{ID: ids.FromName(ids.KindPeer, "s0"), Addr: "sim://rennes/s0"}
	var pvs []*PeerView
	for _, name := range []string{"a", "b"} {
		e := sched.NewEnv(name)
		tr, _ := net.Attach(name, netmodel.Rennes)
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup, Name: name, Address: string(tr.Addr())}
		pvs = append(pvs, New(e, endpoint.New(e, id, tr), advstore.New(), adv, DefaultConfig(), seeds))
	}
	added := []Seed{
		{ID: ids.FromName(ids.KindPeer, "ra"), Addr: "sim://rennes/ra"},
		{ID: ids.FromName(ids.KindPeer, "rb"), Addr: "sim://rennes/rb"},
	}
	for i, pv := range pvs {
		pv.AddSeed(added[i])
	}
	for i, pv := range pvs {
		if want := []Seed{seeds[0], added[i]}; !slices.Equal(pv.seeds, want) {
			t.Errorf("peerview %d: seeds %v, want %v", i, pv.seeds, want)
		}
	}
	if seeds[:cap(seeds)][1] != (Seed{}) {
		t.Error("AddSeed wrote into the caller's spare capacity")
	}
}

func TestMalformedMessagesIgnored(t *testing.T) {
	sched := simnet.NewScheduler(41)
	peers := newOverlay(t, sched, 2, Config{Interval: time.Hour})
	a, b := peers[0], peers[1]
	b.ep.AddRoute(a.id, a.tr.Addr())
	// Missing advertisement element.
	m := message.New().AddString(ns, elemType, typeProbe)
	b.ep.Send(a.id, ServiceName, m)
	// Unparseable advertisement.
	m2 := message.New().AddString(ns, elemType, typeProbe)
	m2.Add(ns, elemAdv, []byte("<not-xml"))
	b.ep.Send(a.id, ServiceName, m2)
	// Wrong advertisement type.
	peerAdv := &advertisement.Peer{PeerID: b.id, Name: "x"}
	data, _ := advertisement.EncodeXML(peerAdv)
	m3 := message.New().AddString(ns, elemType, typeProbe)
	m3.Add(ns, elemAdv, data)
	b.ep.Send(a.id, ServiceName, m3)
	sched.Run(time.Second)
	if a.pv.Size() != 0 {
		t.Fatalf("malformed messages created %d entries", a.pv.Size())
	}
}

func TestDeterministicConvergence(t *testing.T) {
	run := func() []int {
		sched := simnet.NewScheduler(1234)
		peers := newOverlay(t, sched, 15, DefaultConfig())
		startAll(peers)
		sched.Run(12 * time.Minute)
		sizes := make([]int, len(peers))
		for i, p := range peers {
			sizes[i] = p.pv.Size()
		}
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at peer %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkPeerviewRound50(b *testing.B) {
	sched := simnet.NewScheduler(1)
	peers := benchOverlay(sched, 50)
	startAll(peers)
	sched.Run(2 * time.Minute) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Run(sched.Now() + 30*time.Second)
	}
}

// benchOverlay mirrors newOverlay without testing.T.
func benchOverlay(sched *simnet.Scheduler, n int) []*testRdv {
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	store := advstore.New()
	peers := make([]*testRdv, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rdv%d", i)
		e := sched.NewEnv(name)
		tr, _ := net.Attach(name, netmodel.Site(i%netmodel.NumSites))
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup,
			Name: name, Address: string(tr.Addr())}
		ep := endpoint.New(e, id, tr)
		var seeds []Seed
		if i > 0 {
			seeds = []Seed{{ID: peers[i-1].id, Addr: peers[i-1].tr.Addr()}}
		}
		peers[i] = &testRdv{id: id, adv: adv, ep: ep, tr: tr,
			pv: New(e, ep, store, adv, DefaultConfig(), seeds)}
	}
	return peers
}

func TestProbeTimeoutEvictsDeadNeighbor(t *testing.T) {
	sched := simnet.NewScheduler(31)
	cfg := Config{ProbeTimeoutRounds: 2}
	peers := newOverlay(t, sched, 4, cfg)
	startAll(peers)
	sched.Run(10 * time.Minute)
	for i, p := range peers {
		if p.pv.Size() != 3 {
			t.Fatalf("peer %d view %d before kill, want 3", i, p.pv.Size())
		}
	}
	victim := peers[1]
	victim.pv.Stop()
	victim.tr.Close()
	// 2 missed probe rounds + the eviction sweep: well under a minute of
	// intervals each, nowhere near the 20 min PVE_EXPIRATION.
	sched.Run(sched.Now() + 5*time.Minute)
	for i, p := range peers {
		if p == victim {
			continue
		}
		if p.pv.Contains(victim.id) {
			t.Fatalf("peer %d still lists the dead neighbour after probe timeouts", i)
		}
	}
}

func TestProbeTimeoutDisabledKeepsDeadEntry(t *testing.T) {
	sched := simnet.NewScheduler(32)
	peers := newOverlay(t, sched, 4, Config{}) // detection off (default)
	startAll(peers)
	sched.Run(10 * time.Minute)
	victim := peers[1]
	victim.pv.Stop()
	victim.tr.Close()
	sched.Run(sched.Now() + 5*time.Minute)
	// Loose consistency: without probe detection the entry lingers until
	// PVE_EXPIRATION.
	alive := 0
	for _, p := range peers {
		if p != victim && p.pv.Contains(victim.id) {
			alive++
		}
	}
	if alive == 0 {
		t.Fatal("dead entry vanished although probe detection is disabled")
	}
}

func TestMembersSortedWithAddresses(t *testing.T) {
	sched := simnet.NewScheduler(33)
	peers := newOverlay(t, sched, 5, Config{})
	startAll(peers)
	sched.Run(10 * time.Minute)
	var members []Seed
	for i := range peers[0].pv.Size() {
		members = append(members, peers[0].pv.Member(i))
	}
	if len(members) != 4 {
		t.Fatalf("members = %d, want 4", len(members))
	}
	for i, m := range members {
		if m.Addr == "" {
			t.Fatalf("member %d has no address", i)
		}
		if i > 0 && !members[i-1].ID.Less(m.ID) {
			t.Fatalf("members not in ascending ID order at %d", i)
		}
		if m.ID.Equal(peers[0].id) {
			t.Fatal("members include the local peer")
		}
	}
}

// TestEntryFitsItsSizeClass: a rendezvous of an r-peer tier holds up to r − 1
// entries, each its own heap object, so what one costs is what
// TestRendezvousTierHeapCeiling prices per member. The record is one 24-byte
// size class with no spare word: item 1(a)'s `heard` (ROADMAP) does not fit
// beside the others, so whoever adds it measures a layout of its own against
// that ceiling.
func TestEntryFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 24 {
		t.Fatalf("entry is %d bytes, not the 24 of its size class; adding a field such as item 1(a)'s heard needs a layout measured against TestRendezvousTierHeapCeiling", size)
	}
}
