package rendezvous

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// all returns the records in ascending ID order (the store's backing array:
// do not mutate).
func (rs *rumorStore) all() []rumorRecord {
	if rs == nil {
		return nil
	}
	return rs.recs
}

// stampedOf counts a service's records that carry a merge-backoff stamp.
func stampedOf(s *Service) int {
	n := 0
	for _, r := range s.rumors.all() {
		if r.stamped {
			n++
		}
	}
	return n
}

func hasRumor(s *Service, id ids.ID) bool { return s.rumors.record(id) != nil }

func testRumor(i int) peerview.Rumor {
	return peerview.NewRumor(peerview.Seed{
		ID:   ids.FromName(ids.KindPeer, fmt.Sprintf("rumor-%d", i)),
		Addr: transport.Addr(fmt.Sprintf("sim://0/rumor-%d", i)),
	})
}

func deadToAll(ids.ID) bool { return false }

func TestRumorStoreSweepEvictsAfterNMisses(t *testing.T) {
	rs := new(rumorStore)
	dead, alive := testRumor(1), testRumor(2)
	rs.add(dead)
	rs.add(alive)
	live := func(id ids.ID) bool { return id.Equal(alive.ID) }
	for i := 1; i < rumorDeadSweeps; i++ {
		if n := rs.sweep(live); n != 0 {
			t.Fatalf("sweep %d evicted %d rumors before rumorDeadSweeps", i, n)
		}
	}
	if n := rs.sweep(live); n != 1 {
		t.Fatalf("sweep %d evicted %d, want 1", rumorDeadSweeps, n)
	}
	if rs.Len() != 1 || !rs.all()[0].ID.Equal(alive.ID) {
		t.Fatalf("store after sweep: %v", rs.all())
	}
}

func TestRumorStoreAddResetsAgingClock(t *testing.T) {
	rs := new(rumorStore)
	r := testRumor(1)
	rs.add(r)
	for i := 1; i < rumorDeadSweeps; i++ {
		rs.sweep(deadToAll)
	}
	rs.add(r) // re-gossiped: the misses on the books must be forgiven
	rs.sweep(deadToAll)
	if rs.Len() != 1 {
		t.Fatal("re-added rumor evicted after a single post-add miss")
	}
	for i := 1; i < rumorDeadSweeps; i++ {
		rs.sweep(deadToAll)
	}
	if rs.Len() != 0 {
		t.Fatalf("rumor survived %d consecutive misses after re-add", rumorDeadSweeps)
	}
}

// TestRumorRecordKeepsItsStampUntilEvicted: the record is one per identity,
// so the merge-backoff stamp lives and dies with it. An address refresh
// keeps the stamp and, as every sighting does, clears the dead count; the
// sweep that evicts the record takes the stamp with it.
func TestRumorRecordKeepsItsStampUntilEvicted(t *testing.T) {
	rs := new(rumorStore)
	r := testRumor(1)
	rec := rs.add(r)
	rec.tried, rec.stamped = 5*time.Second, true
	rs.sweep(deadToAll)
	if rec := rs.record(r.ID); rec.dead != 1 {
		t.Fatalf("dead count %d after one dead sweep, want 1", rec.dead)
	}
	moved := peerview.NewRumor(peerview.Seed{ID: r.ID, Addr: "sim://0/moved"})
	rec = rs.add(moved)
	if rec.Addr != moved.Addr || rec.Sig != moved.Sig {
		t.Fatalf("address not refreshed: %+v", rec.Rumor)
	}
	if !rec.stamped || rec.tried != 5*time.Second {
		t.Fatalf("the refresh lost the stamp: stamped %v at %v", rec.stamped, rec.tried)
	}
	if rec.dead != 0 {
		t.Fatalf("the refresh left dead count %d", rec.dead)
	}
	for i := 0; i < rumorDeadSweeps; i++ {
		rs.sweep(deadToAll)
	}
	if rs.Len() != 0 {
		t.Fatal("record not evicted")
	}
	if rec := rs.add(r); rec.stamped || rec.dead != 0 {
		t.Fatalf("a re-added identity inherited stamped %v, dead %d from its evicted record", rec.stamped, rec.dead)
	}
}

func TestRumorStoreSweepKeepsWindowRotation(t *testing.T) {
	// Evicting an entry behind the cursor must not make the rotation skip
	// survivors: after the sweep, a full cycle of nextWindow(1) calls still
	// visits every remaining rumor.
	rs := new(rumorStore)
	for i := 0; i < 6; i++ {
		rs.add(testRumor(i))
	}
	rs.nextWindow(3) // advance the cursor into the middle of the store
	first := rs.all()[0].ID
	live := func(id ids.ID) bool { return !id.Equal(first) }
	for i := 1; i < rumorDeadSweeps; i++ {
		rs.sweep(live)
	}
	if n := rs.sweep(live); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	seen := make(map[ids.ID]bool)
	for i := 0; i < rs.Len(); i++ {
		head, wrapped := rs.nextWindow(1)
		for _, r := range slices.Concat(head, wrapped) {
			seen[r.ID] = true
		}
	}
	if len(seen) != rs.Len() {
		t.Fatalf("one rotation cycle visited %d of %d rumors", len(seen), rs.Len())
	}
}

// TestRumorStoreOrderIsTheIndex: the store keeps no map beside its ordered
// records — binary search over the ascending IDs finds a rumor — so an
// edge's store needs no freezing. Inserts in any order come out ascending, a
// rumor the store already holds costs nothing, a known ID refreshes its
// address in place, and the dead counts are fields of the records.
func TestRumorStoreOrderIsTheIndex(t *testing.T) {
	rs := new(rumorStore)
	for _, i := range []int{5, 1, 4, 2, 3, 0} {
		if rs.add(testRumor(i)) == nil {
			t.Fatalf("adding rumor %d was refused", i)
		}
	}
	again := testRumor(4)
	if allocs := testing.AllocsPerRun(10, func() { rs.add(again) }); allocs != 0 {
		t.Fatalf("re-adding an unchanged rumor allocates %.0f objects, want 0", allocs)
	}
	if rs.Len() != 6 {
		t.Fatalf("store holds %d rumors, want 6", rs.Len())
	}
	for i, r := range rs.all() {
		if i > 0 && !rs.all()[i-1].ID.Less(r.ID) {
			t.Fatalf("order broken at %d", i)
		}
		if at, ok := rs.find(r.ID); !ok || at != i {
			t.Fatalf("find(%s) = %d, %v; want %d", r.ID.Short(), at, ok, i)
		}
		if rs.record(r.ID) != &rs.recs[i] {
			t.Fatalf("record(%s) is not the stored record", r.ID.Short())
		}
	}
	if _, ok := rs.find(testRumor(9).ID); ok || rs.record(testRumor(9).ID) != nil {
		t.Fatal("found a rumor never added")
	}
	moved := peerview.NewRumor(peerview.Seed{ID: testRumor(3).ID, Addr: "sim://0/moved"})
	if rs.add(moved) == nil || rs.Len() != 6 {
		t.Fatal("a new address for a known ID must refresh it in place")
	}
	if rs.record(moved.ID).Addr != moved.Addr {
		t.Fatal("address not refreshed")
	}
	rs.sweep(func(ids.ID) bool { return true })
	for _, r := range rs.all() {
		if r.dead != 0 {
			t.Fatalf("a sweep over live identities charged %s a dead sweep", r.ID.Short())
		}
	}
	rs.sweep(deadToAll)
	for _, r := range rs.all() {
		if r.dead != 1 {
			t.Fatalf("%s counts %d dead sweeps after one all-dead sweep, want 1", r.ID.Short(), r.dead)
		}
	}
}

// TestRumorStoreRefusesUnprobeable: a record without an address, or naming
// the nil ID, cannot be probed, so the store refuses it; a nil store reads
// as an empty one.
func TestRumorStoreRefusesUnprobeable(t *testing.T) {
	rs := new(rumorStore)
	for _, sd := range []peerview.Seed{{ID: testRumor(1).ID}, {ID: ids.Nil, Addr: "sim://9/forged"}} {
		if rs.add(peerview.NewRumor(sd)) != nil || rs.Len() != 0 {
			t.Fatalf("the store took %+v", sd)
		}
	}
	var none *rumorStore
	if none.Len() != 0 || none.record(testRumor(1).ID) != nil || none.sweep(deadToAll) != 0 {
		t.Fatal("a nil store is not empty")
	}
	if head, wrapped := none.nextWindow(4); head != nil || wrapped != nil {
		t.Fatal("a nil store has a window")
	}
}

// ghostListener attaches a silent peer at a fresh address: it counts the
// lease messages it receives and never answers — a dead peer, except that
// the test can see the traffic wasted on it.
func ghostListener(t *testing.T, sched *simnet.Scheduler, net *transport.Network, name string) (peerview.Rumor, *int) {
	t.Helper()
	tr, err := net.Attach(name, netmodel.Site(0))
	if err != nil {
		t.Fatal(err)
	}
	id := ids.FromName(ids.KindPeer, name)
	ep := endpoint.New(sched.NewEnv(name), id, tr)
	probes := new(int)
	ep.Register(LeaseService, func(ids.ID, *message.Message) { *probes++ })
	return peerview.NewRumor(peerview.Seed{ID: id, Addr: tr.Addr()}), probes
}

func TestRumorAgingEvictsDeadIdentities(t *testing.T) {
	// A rumor for an identity that is never a peerview member or leased
	// client must age out of the store after rumorDeadSweeps sweeps, while
	// live tier members survive indefinitely.
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	cfg := DefaultConfig()
	cfg.LeaseDuration = 2 * time.Minute // client sweep every 30s
	cfg.IslandMerge = true
	rdvs := newRdvOverlayCfg(t, sched, net, 2, cfg)
	ghost := peerview.NewRumor(peerview.Seed{
		ID:   ids.FromName(ids.KindPeer, "long-gone"),
		Addr: "sim://0/long-gone",
	})
	member := peerview.NewRumor(peerview.Seed{
		ID: rdvs[1].id, Addr: rdvs[1].tr.Addr(),
	})
	sched.After(time.Minute, func() {
		rdvs[0].svc.rumorStore().add(ghost)
		rdvs[0].svc.rumorStore().add(member)
	})
	sched.Run(20 * time.Minute)
	if hasRumor(rdvs[0].svc, ghost.ID) {
		t.Fatal("dead rumor survived 19 minutes of sweeps")
	}
	if !hasRumor(rdvs[0].svc, rdvs[1].id) {
		t.Fatal("live tier member evicted")
	}
}

func TestDeadRumorRetiresFromTierProbes(t *testing.T) {
	// Without aging an anchor would tier-probe every rumored identity
	// forever, dead or not. A confirmed-dead identity must stop consuming
	// probe traffic once it ages out of the rumor store.
	sched := simnet.NewScheduler(55)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	cfg := DefaultConfig()
	cfg.LeaseDuration = 2 * time.Minute // sweep every 30s, probe retry every 1m
	cfg.IslandMerge = true
	rdvs := newRdvOverlayCfg(t, sched, net, 1, cfg)
	ghost, probes := ghostListener(t, sched, net, "long-gone")
	sched.After(time.Minute, func() { rdvs[0].svc.rumorStore().add(ghost) })
	sched.Run(15 * time.Minute)
	early := *probes
	if early == 0 {
		t.Fatal("ghost rumor never probed at all")
	}
	sched.Run(45 * time.Minute)
	if *probes != early {
		t.Fatalf("dead identity still probed after eviction: %d probes at 15m, %d at 45m", early, *probes)
	}
	if hasRumor(rdvs[0].svc, ghost.ID) {
		t.Fatal("dead rumor still stored after its aging horizon")
	}
}

// TestMergeStampAtTimeZeroBacksOff: a record stamped at virtual time 0 is
// stamped — the stamp is not its zero value — so a rumor heard again within
// one renewal period is not probed again, and the sweep's retry probes it
// once the period has passed.
func TestMergeStampAtTimeZeroBacksOff(t *testing.T) {
	sched := simnet.NewScheduler(57)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	cfg := DefaultConfig()
	cfg.LeaseDuration = 2 * time.Minute // probe retry every 1m
	cfg.IslandMerge = true
	s := newRdvOverlayCfg(t, sched, net, 1, cfg)[0].svc
	ghost, probes := ghostListener(t, sched, net, "ghost")
	hear := func() {
		m := new(lent).add(elemTierAck, "1").add(elemRumor, string(ghost.AppendEncode(nil)))
		s.receiveLease(ids.FromName(ids.KindPeer, "relay"), &m.Message) // a redirect to the ghost
	}
	if sched.Now() != 0 {
		t.Fatalf("the rig starts at %v", sched.Now())
	}
	hear()
	if rec := s.rumors.record(ghost.ID); rec == nil || !rec.stamped || rec.tried != 0 {
		t.Fatalf("no stamp at time 0: %+v", rec)
	}
	sched.Run(10 * time.Second)
	hear()
	sched.Run(20 * time.Second)
	if *probes != 1 {
		t.Fatalf("%d tier probes inside the backoff, want 1", *probes)
	}
	sched.Run(time.Minute + 10*time.Second)
	if *probes != 2 {
		t.Fatalf("%d tier probes a minute and ten seconds in, want 2", *probes)
	}
}

// TestForgedNilRumorIsNotProbed: a checksummed rumor naming urn:jxta:nil
// parses, and the store refuses its nil ID, so nothing may act on it: a
// lease request that carries one adds no route for the nil ID and sends no
// tier probe.
func TestForgedNilRumorIsNotProbed(t *testing.T) {
	sched := simnet.NewScheduler(58)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	cfg := DefaultConfig()
	cfg.IslandMerge = true
	rdv := newRdvOverlayCfg(t, sched, net, 1, cfg)[0]
	sched.Run(time.Second)
	probes := 0
	net.OnSend = func(_, _ transport.Addr, m *message.Message) {
		if endpoint.ServiceOf(m) == LeaseService && len(readLeaseHeader(m).probe) != 0 {
			probes++
		}
	}
	forged := peerview.NewRumor(peerview.Seed{ID: ids.Nil, Addr: "sim://9/forged"})
	edge := ids.FromName(ids.KindPeer, "edge")
	m := new(lent).add(elemRequest, rdv.svc.leaseText).add(elemRumor, string(forged.AppendEncode(nil)))
	rdv.svc.receiveLease(edge, &m.Message)
	sched.Run(sched.Now() + time.Second)
	if addr, ok := rdv.ep.RouteTo(ids.Nil); ok {
		t.Fatalf("a forged rumor added a route for the nil ID, to %q", addr)
	}
	if probes != 0 {
		t.Fatalf("a forged rumor drew %d tier probes", probes)
	}
	if !rdv.svc.HasClient(edge) {
		t.Fatal("the request carrying the rumor was not served")
	}
}
