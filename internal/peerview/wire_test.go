package peerview

import (
	"bytes"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/message"
	"jxta/internal/simnet"
)

// tapAdvs replaces p's peerview handler with one that records a copy of the
// RdvAdv elements of every message of the given type (the message is on
// loan, transport.Handler).
func tapAdvs(p *testRdv, msgType string) *[][]byte {
	var got [][]byte
	p.ep.Register(ServiceName, func(_ ids.ID, m *message.Message) {
		if m.GetString(ns, elemType) != msgType {
			return
		}
		for _, el := range m.Elements() {
			if el.Namespace == ns && el.Name == elemAdv {
				got = append(got, bytes.Clone(el.Data))
			}
		}
	})
	return &got
}

// The bytes a referral (and a merge list) carries for an entry are exactly
// EncodeXML(entry.rdv()), whether the entry was learned from a merge list
// element or from the peer's own probe.
func TestReferralCarriesCanonicalBytes(t *testing.T) {
	sched := simnet.NewScheduler(41)
	peers := newOverlay(t, sched, 6, Config{Interval: time.Hour})
	a, b := peers[0], peers[1]
	// b learns two peers as merge list elements ...
	b.learn(peers[2].adv)
	b.learn(peers[3].adv)
	// ... and two off the wire: their probes carry their advertisements.
	for _, p := range peers[4:] {
		p.ep.AddRoute(b.id, b.tr.Addr())
		p.pv.sendProbe(b.id)
	}
	sched.Run(time.Second)
	if b.pv.Size() != 4 {
		t.Fatalf("b's view = %d, want 4", b.pv.Size())
	}

	want := map[string]bool{}
	for _, en := range b.pv.entries {
		enc, err := advertisement.EncodeXML(en.rdv())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(en.sh.Bytes(), enc) {
			t.Fatalf("entry %s: handle bytes differ from EncodeXML(adv)", en.rdv().Name)
		}
		want[string(enc)] = true
	}

	referred := tapAdvs(a, typeReferral)
	b.ep.AddRoute(a.id, a.tr.Addr())
	b.pv.sendReferrals(a.id) // at this Interval one batch covers the view of four
	sched.Run(sched.Now() + time.Second)
	if len(*referred) != 4 {
		t.Fatalf("referrals carried %d advertisements, want 4", len(*referred))
	}
	for _, data := range *referred {
		if !want[string(data)] {
			t.Fatalf("referral carried %q, not the encoding of any entry", data)
		}
		delete(want, string(data))
	}

	merged := tapAdvs(a, typeMerge)
	b.pv.sendView(a.id, typeMerge)
	sched.Run(sched.Now() + time.Second)
	self, _ := advertisement.EncodeXML(b.adv)
	if len(*merged) != 5 || !bytes.Equal((*merged)[0], self) {
		t.Fatalf("merge list = %d advertisements (self first), want 5", len(*merged))
	}
	for i, en := range b.pv.entries {
		if enc, _ := advertisement.EncodeXML(en.rdv()); !bytes.Equal((*merged)[i+1], enc) {
			t.Fatalf("merge list entry %d is not EncodeXML(adv)", i)
		}
	}
}

// Elements that are malformed, or well-formed but not a rendezvous
// advertisement, are skipped without holding a reference; the rest of the
// batch still applies.
func TestReceiveSkipsBadAdvertisementsWithoutLeaking(t *testing.T) {
	sched := simnet.NewScheduler(43)
	peers := newOverlay(t, sched, 3, Config{Interval: time.Hour})
	store := peers[0].pv.store
	a, b, c := peers[0], peers[1], peers[2]
	a.learn(c.adv)
	before := a.entryOf(c.id).renewed
	sched.Run(time.Minute)

	peerAdv, _ := advertisement.EncodeXML(&advertisement.Peer{PeerID: b.id, Name: "not a rendezvous"})
	good, _ := advertisement.EncodeXML(c.adv)
	m := message.New()
	m.AddString(ns, elemType, typeReferral)
	m.Add(ns, elemAdv, []byte("<jxta:RdvAdvertisement><RdvPeerID>trunc"))
	m.Add(ns, elemAdv, peerAdv)
	m.Add(ns, elemAdv, good)
	a.pv.receive(b.id, m)

	if a.entryOf(c.id).renewed <= before {
		t.Fatal("valid advertisement behind bad ones was not applied")
	}
	if a.pv.Size() != 1 || store.Len() != 1 {
		t.Fatalf("view=%d store=%d, want 1, 1 (bad elements must not be held)", a.pv.Size(), store.Len())
	}
	for _, typ := range []string{typeProbe, typeResponse, typeUpdate} {
		m := message.New()
		m.AddString(ns, elemType, typ)
		m.Add(ns, elemAdv, peerAdv)
		a.pv.receive(b.id, m)
	}
	if a.pv.Size() != 1 || store.Len() != 1 {
		t.Fatalf("view=%d store=%d after non-rendezvous probes, want 1, 1", a.pv.Size(), store.Len())
	}
	a.pv.Reset()
	if store.Len() != 0 {
		t.Fatalf("store holds %d advertisements after Reset", store.Len())
	}
}

// Every reference the wire path takes is either kept by exactly one view
// entry or released: while the tier runs the store holds one handle per
// distinct advertisement in some view, and resetting every view empties it.
// Each Reset releases exactly once per entry, so a count that ran high would
// leave the handle tabled and one that ran low would panic in Release.
func TestStoreEmptyAfterTeardown(t *testing.T) {
	sched := simnet.NewScheduler(47)
	cfg := DefaultConfig()
	cfg.EntryExpiry = 3 * time.Minute // expiry and re-learning churn the handles
	peers := newOverlay(t, sched, 12, cfg)
	store := peers[0].pv.store
	startAll(peers)
	sched.Run(6 * time.Minute)
	peers[3].pv.Stop()
	peers[7].pv.Stop()
	sched.Run(15 * time.Minute)

	held := map[*advstore.Shared]bool{}
	for _, p := range peers {
		for _, en := range p.pv.entries {
			held[en.sh] = true
		}
	}
	if len(held) == 0 {
		t.Fatal("no view holds anything; the test proves nothing")
	}
	if store.Len() != len(held) {
		t.Fatalf("store holds %d advertisements, views hold %d distinct handles", store.Len(), len(held))
	}
	for _, p := range peers {
		p.pv.Stop()
		p.pv.Reset()
	}
	if store.Len() != 0 {
		t.Fatalf("store holds %d advertisements after every view was reset", store.Len())
	}
}

// TestRepeatedMentionAllocs gates the cost of the gossip a converged tier is
// made of: an advertisement the receiver already holds, byte for byte. A
// referral batch naming members, a probe from a member and a merge request
// listing only members renew the entries they name in place (hear): no
// allocation, and no visit to the store, whose hits and misses stay where
// they were. A referral naming a stranger whose probe is in flight stops at
// the ID, with the same costs. The probe's answer, a response and a referral
// batch the tier then delivers, takes the same path at the prober, and no
// repeated mention sends a probe.
func TestRepeatedMentionAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sched := simnet.NewScheduler(53)
	peers := newOverlay(t, sched, 5, DefaultConfig())
	startAll(peers)
	sched.Run(5 * time.Minute)
	at, from := peers[0], peers[1]
	if at.pv.Size() != len(peers)-1 {
		t.Fatalf("the tier did not converge: rdv0 sees %d of %d", at.pv.Size(), len(peers)-1)
	}
	at.pv.SetMergeListener(func(ids.ID) {})
	var batch [][]byte
	for _, en := range from.pv.entries {
		if !en.rdv().PeerID.Equal(at.id) {
			batch = append(batch, en.sh.Bytes())
		}
	}
	referral := pvFromScript(pvScript(typeReferral, batch...))
	probe := pvFromScript(pvScript(typeProbe, from.pv.selfBytes))
	merge := pvFromScript(pvScript(typeMerge, append([][]byte{from.pv.selfBytes}, batch...)...))
	// The first delivery probes the stranger; every later one finds the
	// probe in flight.
	inflight := pvFromScript(pvScript(typeReferral, strangerAdv(ids.FromName(ids.KindPeer, "stranger"))))
	store := at.pv.store
	for _, c := range []struct {
		name  string
		m     *message.Message
		named int
	}{
		{"referral", referral, len(batch)},
		{"probe", probe, 1},
		{"merge", merge, len(batch) + 1},
		{"in-flight referral", inflight, 0},
	} {
		deliver := func() {
			at.pv.receive(from.id, c.m)
			sched.Run(sched.Now() + 10*time.Millisecond)
		}
		deliver() // fill the pools the probe's answer draws from
		for _, en := range at.pv.entries {
			en.renewed = 0
		}
		hits, misses := store.Stats()
		probes := at.pv.n.probes
		at.pv.receive(from.id, c.m)
		if sent := at.pv.n.probes - probes; sent != 0 {
			t.Errorf("%s: a repeated mention sent %d probes", c.name, sent)
		}
		sched.Run(sched.Now() + 10*time.Millisecond)
		renewed := 0
		for _, en := range at.pv.entries {
			if en.renewed > 0 {
				renewed++
			}
		}
		if renewed != c.named {
			t.Fatalf("%s: %d entries renewed, want the %d it named", c.name, renewed, c.named)
		}
		if got := testing.AllocsPerRun(100, deliver); got != 0 {
			t.Errorf("%s: a repeated mention costs %.1f allocations, want 0", c.name, got)
		}
		if h, m := store.Stats(); h != hits || m != misses {
			t.Errorf("%s: the store saw the repeated mention: hits %d→%d, misses %d→%d", c.name, hits, h, misses, m)
		}
	}
}
