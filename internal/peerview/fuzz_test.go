package peerview

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// checkIndexed fails t unless pv's view is its own index: entries strictly
// ascending by ID and without the local peer, find returning each entry's
// own position, and Contains agreeing with a linear scan for every ID in
// probe. Every entry's advertisement must also be what its held bytes
// decode to, since a repeated mention is confirmed against those bytes, and
// every entry's key must be its ID's Prefix, since find orders by it.
func checkIndexed(t testing.TB, name string, pv *PeerView, probe []ids.ID) {
	t.Helper()
	for i, en := range pv.entries {
		id := en.rdv().PeerID
		if en.key != id.Prefix() {
			t.Fatalf("%s: entry %s has key %#x, its ID's prefix is %#x", name, id, en.key, id.Prefix())
		}
		if adv, err := advertisement.DecodeXML(en.sh.Bytes()); err != nil || !reflect.DeepEqual(adv, en.rdv()) {
			t.Fatalf("%s: entry %s holds %+v, its bytes decode to %+v, %v", name, id, en.rdv(), adv, err)
		}
		if id.Equal(pv.self.PeerID) {
			t.Fatalf("%s: the view holds the local peer at %d", name, i)
		}
		if i > 0 && !pv.entries[i-1].rdv().PeerID.Less(id) {
			t.Fatalf("%s: view unsorted or duplicated at %d: %s !< %s", name, i, pv.entries[i-1].rdv().PeerID, id)
		}
		if at, ok := pv.find(id); !ok || at != i {
			t.Fatalf("%s: find(%s) = %d, %v; the entry is at %d", name, id, at, ok, i)
		}
	}
	for _, id := range probe {
		scan := false
		for _, en := range pv.entries {
			scan = scan || en.rdv().PeerID.Equal(id)
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
		prior[en.rdv().PeerID] = priorEntry{en.renewed, en.sh, routedTo(pv, en)}
	}
	return prior
}

// routedTo reports whether the endpoint routes to the entry's peer at the
// Address its advertisement names.
func routedTo(pv *PeerView, en *entry) bool {
	addr, ok := pv.ep.RouteTo(en.rdv().PeerID)
	return ok && string(addr) == en.rdv().Address
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
		id := en.rdv().PeerID
		p, known := prior[id]
		if en.rdv().Address != "" && !routedTo(pv, en) && (!known || p.sh != en.sh || p.routed) {
			addr, _ := pv.ep.RouteTo(id)
			t.Fatalf("entry %s names %s, its route is %q", id, en.rdv().Address, addr)
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

// checkStoredOnce fails t if the endpoint's own table holds a view member,
// or a stranger being probed, at the address the view gives it: the view is
// that peer's route (Route), and a copy in the table is the duplicate the
// view replaced. The table is read with the view detached.
func checkStoredOnce(t testing.TB, pv *PeerView) {
	t.Helper()
	pv.ep.SetRouteSource(nil)
	defer pv.ep.SetRouteSource(pv)
	held := func(id ids.ID, viewAddr string) {
		if addr, ok := pv.ep.RouteTo(id); ok && string(addr) == viewAddr {
			t.Fatalf("the endpoint's table holds %s at %s, the address the view gives it", id, addr)
		}
	}
	for _, en := range pv.entries {
		held(en.rdv().PeerID, en.rdv().Address)
	}
	for id, p := range pv.probed {
		held(id, string(p.addr))
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
// Address its bytes name (checkHeld has the one exemption). That route is the
// entry itself: the endpoint's own table must hold no member at the address
// its entry names (checkStoredOnce), so each address is stored once.
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
			probe = append(probe, en.rdv().PeerID)
		}
		prior := snapshot(at.pv)
		m := pvFromScript(script)
		at.pv.receive(src, m)
		for _, en := range at.pv.entries {
			probe = append(probe, en.rdv().PeerID)
		}
		checkIndexed(t, "after receive", at.pv, probe)
		checkHeld(t, at.pv, m, prior)
		checkStoredOnce(t, at.pv)
		rig.sched.Run(rig.sched.Now() + 10*time.Millisecond + time.Duration(who>>2)*time.Second)
		checkIndexed(t, "after the tier ran on", at.pv, probe)
		checkStoredOnce(t, at.pv)
	})
}

// tapTransport hands a test the inbound handler the endpoint installs: its
// dispatch, called directly.
type tapTransport struct {
	transport.Transport
	dispatch transport.Handler
}

func (tt *tapTransport) SetHandler(h transport.Handler) {
	tt.dispatch = h
	tt.Transport.SetHandler(h)
}

// FuzzDispatchToView feeds a rendezvous' endpoint dispatch arbitrary envelope
// bytes, with its peerview installed as the route source: the learn path that
// runs through the view. The view holds three members, one of them routed
// by the endpoint's table at another address, and a stranger is being
// probed. Dispatch must transmit nothing and change no route but the one to
// the envelope's own Src, which becomes its SrcAddr when the envelope is
// read (a Dst that does not parse drops it first); it must keep no
// reference to the input; KnownPeers must name each routed peer once; and
// the endpoint's table must hold no peer at the address the view gives it
// (checkStoredOnce), whether the learned address is the one the view names
// or another.
func FuzzDispatchToView(f *testing.F) {
	newRdv := func(t testing.TB) (*testRdv, *tapTransport, *int, []ids.ID) {
		sched := simnet.NewScheduler(61)
		net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
		tr, err := net.Attach("rdv", netmodel.Rennes)
		if err != nil {
			t.Fatal(err)
		}
		tap := &tapTransport{Transport: tr}
		e := sched.NewEnv("rdv")
		id := ids.FromName(ids.KindPeer, "rdv")
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup, Name: "rdv", Address: string(tr.Addr())}
		ep := endpoint.New(e, id, tap)
		p := &testRdv{id: id, adv: adv, ep: ep, tr: tr,
			pv: New(e, ep, advstore.New(), adv, DefaultConfig(), nil)}
		var known []ids.ID
		for i := 0; i < 3; i++ {
			m := ids.FromName(ids.KindPeer, fmt.Sprintf("member%d", i))
			p.learn(&advertisement.Rdv{PeerID: m, GroupID: testGroup, Name: "m", Address: fmt.Sprintf("sim://test/member%d", i)})
			known = append(known, m)
		}
		ep.AddRoute(known[2], "sim://test/elsewhere")
		stranger := ids.FromName(ids.KindPeer, "stranger")
		p.pv.hear(strangerAdv(stranger), 0, false)
		known = append(known, stranger, id)
		sent := new(int)
		net.OnSend = func(transport.Addr, transport.Addr, *message.Message) { *sent++ }
		return p, tap, sent, known
	}
	p, _, _, known := newRdv(f)
	for _, src := range known {
		for _, addr := range []string{"sim://test/member0", "sim://test/member2", "sim://0/stranger", "sim://test/moved", ""} {
			f.Add([]byte(src.String()), []byte(p.id.String()), []byte(ServiceName), []byte(addr))
		}
	}
	f.Add([]byte("urn:jxta:nil"), []byte("urn:jxta:nil"), []byte(""), []byte("sim://test/x"))
	f.Add([]byte(known[1].String()), []byte("urn:jxta:uuid-00"), []byte(ServiceName), []byte("sim://test/moved"))
	f.Fuzz(func(t *testing.T, src, dst, svc, srcAddr []byte) {
		p, tap, sent, known := newRdv(t)
		srcID, srcErr := ids.ParseBytes(src)
		if srcErr == nil {
			known = append(known, srcID)
		}
		_, dstErr := ids.ParseBytes(dst)
		before := map[ids.ID]string{}
		for _, id := range known {
			if addr, ok := p.ep.RouteTo(id); ok {
				before[id] = string(addr)
			}
		}
		wire := message.New().
			Add("ep", "Src", src).Add("ep", "Dst", dst).Add("ep", "Svc", svc).
			Add("ep", "SrcAddr", srcAddr).Add("ep", "TTL", []byte("8"))
		tap.dispatch("sim://test/fuzz", wire)
		if *sent != 0 {
			t.Fatalf("dispatch made the rendezvous transmit %d messages", *sent)
		}
		// An envelope whose Dst does not parse is dropped before it is
		// learned from.
		learned := srcErr == nil && dstErr == nil && len(srcAddr) > 0 && !srcID.Equal(p.id)
		after := map[ids.ID]string{}
		for _, id := range known {
			addr, ok := p.ep.RouteTo(id)
			if ok {
				after[id] = strings.Clone(string(addr))
			}
			want, wantOK := before[id], before[id] != ""
			if learned && id.Equal(srcID) {
				want, wantOK = string(srcAddr), true
			}
			if string(addr) != want || ok != wantOK {
				t.Fatalf("after dispatch from %q at %q, the route to %s is %q, %v; want %q, %v", src, srcAddr, id.Short(), addr, ok, want, wantOK)
			}
		}
		checkStoredOnce(t, p.pv)
		listed := map[ids.ID]bool{}
		for _, id := range p.ep.KnownPeers() {
			if listed[id] {
				t.Fatalf("KnownPeers names %s twice", id.Short())
			}
			listed[id] = true
			if _, ok := p.ep.RouteTo(id); !ok {
				t.Fatalf("KnownPeers names %s, which has no route", id.Short())
			}
		}
		for _, in := range [][]byte{src, dst, svc, srcAddr} {
			for i := range in {
				in[i] ^= 0xff
			}
		}
		for id, want := range after {
			if addr, _ := p.ep.RouteTo(id); string(addr) != want {
				t.Fatalf("the route to %s changed from %q to %q when the input was overwritten", id.Short(), want, addr)
			}
		}
	})
}
