package peerview

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/simnet"
)

// checkIndexed fails t unless pv's view is its own index: entries strictly
// ascending by ID and without the local peer, find returning each entry's
// own position, and Contains agreeing with a linear scan for every ID in
// probe. Every entry's advertisement must also be what its held bytes
// decode to, since a repeated mention is confirmed against those bytes, and
// every peer with a miss count must be a view member: an entry leaves the
// view with its count.
func checkIndexed(t testing.TB, name string, pv *PeerView, probe []ids.ID) {
	t.Helper()
	for id := range pv.missed {
		if _, ok := pv.find(id); !ok {
			t.Fatalf("%s: %s has a miss count but no entry", name, id)
		}
	}
	for i, en := range pv.entries {
		id := en.adv.PeerID
		if adv, err := advertisement.DecodeXML(en.sh.Bytes()); err != nil || !reflect.DeepEqual(adv, en.adv) {
			t.Fatalf("%s: entry %s holds %+v, its bytes decode to %+v, %v", name, id, en.adv, adv, err)
		}
		if id.Equal(pv.self.PeerID) {
			t.Fatalf("%s: the view holds the local peer at %d", name, i)
		}
		if i > 0 && !pv.entries[i-1].adv.PeerID.Less(id) {
			t.Fatalf("%s: view unsorted or duplicated at %d: %s !< %s", name, i, pv.entries[i-1].adv.PeerID, id)
		}
		if at, ok := pv.find(id); !ok || at != i {
			t.Fatalf("%s: find(%s) = %d, %v; the entry is at %d", name, id, at, ok, i)
		}
	}
	for _, id := range probe {
		scan := false
		for _, en := range pv.entries {
			scan = scan || en.adv.PeerID.Equal(id)
		}
		if pv.Contains(id) != scan {
			t.Fatalf("%s: Contains(%s) = %v, a scan of the view says %v", name, id, !scan, scan)
		}
	}
}

// priorEntry is what checkHeld compares an entry with: its state before m
// arrived.
type priorEntry struct {
	renewed time.Duration
	sh      *advstore.Shared
	// routed: the endpoint's route to the peer was the Address the entry's
	// advertisement names.
	routed bool
}

// snapshot records every entry's priorEntry.
func snapshot(pv *PeerView) map[ids.ID]priorEntry {
	prior := map[ids.ID]priorEntry{}
	for _, en := range pv.entries {
		prior[en.adv.PeerID] = priorEntry{en.renewed, en.sh, routedTo(pv, en)}
	}
	return prior
}

// routedTo reports whether the endpoint routes to the entry's peer at the
// Address its advertisement names.
func routedTo(pv *PeerView, en *entry) bool {
	addr, ok := pv.ep.RouteTo(en.adv.PeerID)
	return ok && string(addr) == en.adv.Address
}

// checkHeld fails t unless every entry that receiving m renewed or added
// holds the last advertisement m carried for its ID, in canonical form: an
// entry is renewed from the bytes received, or not at all. Every entry with
// an Address must also be routed to it: a held renewal writes no route
// (renewHeld), because the entry's bytes, Address included, are the ones
// whose route hear wrote when they were interned. The one exemption is an
// entry whose route already named another address before m and that m did
// not re-intern: the tier running on between inputs delivers envelopes from
// the real peer at its real address while the entry may hold a fuzzed
// advertisement that names another, and nothing in receive writes that
// route back. prior is each entry's state before m arrived.
func checkHeld(t testing.TB, pv *PeerView, m *message.Message, prior map[ids.ID]priorEntry) {
	t.Helper()
	var applied [][]byte
	typ, _ := m.Get(ns, elemType)
	switch string(typ) {
	case typeProbe, typeResponse, typeUpdate:
		if data, ok := m.Get(ns, elemAdv); ok {
			applied = append(applied, data)
		}
	case typeReferral, typeMerge, typeMergeAck:
		for _, el := range m.Elements() {
			if el.Namespace == ns && el.Name == elemAdv {
				applied = append(applied, el.Data)
			}
		}
	}
	last := map[ids.ID][]byte{}
	for _, data := range applied {
		if adv, err := advertisement.DecodeXML(data); err == nil {
			if rdv, ok := adv.(*advertisement.Rdv); ok {
				last[rdv.PeerID], _ = advertisement.EncodeXML(rdv)
			}
		}
	}
	now := pv.env.Now()
	for _, en := range pv.entries {
		id := en.adv.PeerID
		p, known := prior[id]
		if en.adv.Address != "" && !routedTo(pv, en) && (!known || p.sh != en.sh || p.routed) {
			addr, _ := pv.ep.RouteTo(id)
			t.Fatalf("entry %s names %s, its route is %q", id, en.adv.Address, addr)
		}
		if en.renewed != now || known && p.renewed == now {
			continue
		}
		want, ok := last[id]
		if !ok {
			t.Fatalf("entry %s was renewed by a message that carried no advertisement for it", id)
		}
		if !bytes.Equal(en.sh.Bytes(), want) {
			t.Fatalf("entry %s holds %q, the last advertisement received for it was %q", id, en.sh.Bytes(), want)
		}
	}
}

// pvElems are the pv: element names a fuzz script can name by index; the
// last is one the protocol does not know.
var pvElems = []string{elemType, elemAdv, "Unknown"}

// pvScript flattens a peerview message into the fuzz input form: one record
// per element — name index, two-byte payload length, payload.
func pvScript(typ string, advs ...[]byte) []byte {
	script := append([]byte{0, 0, byte(len(typ))}, typ...)
	for _, adv := range advs {
		script = append(append(script, 1, byte(len(adv)>>8), byte(len(adv))), adv...)
	}
	return script
}

// pvFromScript is the inverse.
func pvFromScript(script []byte) *message.Message {
	m := message.New()
	for len(script) >= 3 && m.Len() < 64 {
		name := pvElems[int(script[0])%len(pvElems)]
		n := min(int(script[1])<<8|int(script[2]), len(script)-3)
		m.Add(ns, name, script[3:3+n])
		script = script[3+n:]
	}
	return m
}

// fuzzRig is a converged five-rendezvous tier with failure detection and the
// merge protocol on, so every path of receive can run.
type fuzzRig struct {
	sched *simnet.Scheduler
	peers []*testRdv
}

func newFuzzRig(t testing.TB) *fuzzRig {
	t.Helper()
	sched := simnet.NewScheduler(53)
	cfg := DefaultConfig()
	cfg.ProbeTimeoutRounds = 3
	peers := newOverlay(t, sched, 5, cfg)
	for _, p := range peers {
		p.pv.SetMergeListener(func(ids.ID) {})
	}
	startAll(peers)
	sched.Run(5 * time.Minute)
	if peers[0].pv.Size() != len(peers)-1 {
		t.Fatalf("the rig did not converge: rdv0 sees %d of %d", peers[0].pv.Size(), len(peers)-1)
	}
	return &fuzzRig{sched: sched, peers: peers}
}

// strangerAdv encodes a rendezvous advertisement for id at a made-up address.
func strangerAdv(id ids.ID) []byte {
	b, _ := advertisement.EncodeXML(&advertisement.Rdv{PeerID: id, GroupID: testGroup,
		Name: "stranger", Address: "sim://0/stranger"})
	return b
}

// FuzzPeerviewReceive feeds receive arbitrary pv: element sets on a
// rendezvous of a converged tier, from a view member, a stranger and
// itself, and lets the tier run on for up to a minute after each. The view
// is its own index — it has no map beside the ordered entries — so after
// each input and after the run the entries must be strictly ascending
// without the local peer, find must return each entry's own position, and
// Contains must agree with a linear scan, and a peer with a miss count must
// hold an entry. A repeated mention renews an entry from the bytes it holds
// (hear), so every entry's advertisement must be what those bytes decode to,
// an entry the input renewed must hold the last advertisement the input
// carried for its ID, and the endpoint must route to every entry at the
// Address its bytes name (checkHeld has the one exemption).
func FuzzPeerviewReceive(f *testing.F) {
	rig := newFuzzRig(f)
	at, from := rig.peers[0], rig.peers[1]
	var entries [][]byte
	for _, en := range from.pv.entries {
		entries = append(entries, en.sh.Bytes())
	}
	stranger := strangerAdv(ids.FromName(ids.KindPeer, "stranger"))
	// A twin of a member: the same UUID under another kind, adjacent to it
	// in the order.
	twinID, err := ids.Parse(strings.TrimSuffix(from.id.String(), "-peer") + "-group")
	if err != nil {
		f.Fatal(err)
	}
	twin := strangerAdv(twinID)
	for _, typ := range []string{typeProbe, typeResponse, typeUpdate} {
		f.Add(byte(0), pvScript(typ, from.pv.selfBytes))
		f.Add(byte(1), pvScript(typ, stranger))
		f.Add(byte(0), pvScript(typ, twin))
	}
	f.Add(byte(0), pvScript(typeReferral, append(entries, stranger, twin, at.pv.selfBytes)...))
	f.Add(byte(0), pvScript(typeMerge, append([][]byte{from.pv.selfBytes, stranger}, entries...)...))
	f.Add(byte(4), pvScript(typeMergeAck, twin, stranger))
	f.Add(byte(2), pvScript(typeProbe, []byte("<jxta:RdvAdvertisement><RdvPeerID>trunc")))
	// A member's advertisement with one byte changed after the ID: a new
	// address, which must replace the one held, by probe and by referral.
	moved := bytes.Clone(from.pv.selfBytes)
	moved[bytes.Index(moved, []byte("</Addr>"))-1]++
	f.Add(byte(0), pvScript(typeProbe, moved))
	f.Add(byte(1), pvScript(typeReferral, moved, entries[0]))
	// A batch in reverse order, so every guess at the next entry misses; one
	// that names an ID twice, the second time changed; and the peek's prefix
	// with a truncated ID.
	reversed := append([][]byte(nil), entries...)
	slices.Reverse(reversed)
	f.Add(byte(1), pvScript(typeReferral, reversed...))
	f.Add(byte(1), pvScript(typeReferral, entries[0], entries[1], entries[0], moved, from.pv.selfBytes))
	head := len("<jxta:RdvAdvertisement><RdvPeerID>urn:jxta:uuid-") + 10
	f.Add(byte(1), pvScript(typeReferral, entries[0][:head], append(bytes.Clone(entries[1][:head]), "</RdvPeerID>"...)))
	f.Fuzz(func(t *testing.T, who byte, script []byte) {
		if rig.peers[0].pv.Size() > 64 {
			rig = newFuzzRig(t)
		}
		at := rig.peers[0]
		src := []ids.ID{rig.peers[1].id, ids.FromName(ids.KindPeer, "stranger"), at.id}[int(who)%3]
		probe := []ids.ID{at.id, src, twinID}
		for _, p := range rig.peers {
			probe = append(probe, p.id)
		}
		for _, en := range at.pv.entries {
			probe = append(probe, en.adv.PeerID)
		}
		prior := snapshot(at.pv)
		m := pvFromScript(script)
		at.pv.receive(src, m)
		for _, en := range at.pv.entries {
			probe = append(probe, en.adv.PeerID)
		}
		checkIndexed(t, "after receive", at.pv, probe)
		checkHeld(t, at.pv, m, prior)
		rig.sched.Run(rig.sched.Now() + 10*time.Millisecond + time.Duration(who>>2)*time.Second)
		checkIndexed(t, "after the tier ran on", at.pv, probe)
	})
}
