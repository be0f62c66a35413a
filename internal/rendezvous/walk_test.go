package rendezvous

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
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

// walkRig is three converged rendezvous; mid is the one in the middle of the
// ID order, so it has a neighbour in both directions.
type walkRig struct {
	sched          *simnet.Scheduler
	low, mid, high *rdvPeer
	sent           []*message.Message // walk messages mid sent on, cloned
	sentTo         []transport.Addr
}

func newWalkRig(t *testing.T) *walkRig {
	t.Helper()
	sched := simnet.NewScheduler(21)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlay(t, sched, net, 3)
	sched.Run(10 * time.Minute)
	byID := map[ids.ID]*rdvPeer{}
	order := make([]ids.ID, len(rdvs))
	for i, p := range rdvs {
		order[i], byID[p.id] = p.id, p
	}
	ids.SortIDs(order)
	r := &walkRig{sched: sched, low: byID[order[0]], mid: byID[order[1]], high: byID[order[2]]}
	net.OnSend = func(from, to transport.Addr, m *message.Message) {
		if from == r.mid.tr.Addr() && endpoint.ServiceOf(m) == WalkService {
			r.sent = append(r.sent, m.Clone())
			r.sentTo = append(r.sentTo, to)
		}
	}
	return r
}

// walkOf builds a walk message from name/value pairs, in order.
func walkOf(pairs ...string) *message.Message {
	m := message.New()
	for i := 0; i+1 < len(pairs); i += 2 {
		m.AddString(walkNS, pairs[i], pairs[i+1])
	}
	return m
}

// TestWalkHeaderOutcomes pins what receiveWalk does with every shape of walk
// header — what the handler sees, what is sent on and to whom, what is
// dropped — now that it reads the header as bytes.
func TestWalkHeaderOutcomes(t *testing.T) {
	origin := ids.FromName(ids.KindPeer, "origin")
	urn := origin.String()
	body := string(message.New().AddString("disco", "Key", "PeerNameTest").Marshal())
	type outcome struct {
		handled bool
		dir     Direction
		fwdTTL  string // "": not sent on
		fwdSvc  string
	}
	cases := []struct {
		name string
		msg  *message.Message
		want outcome
	}{
		{"up", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body),
			outcome{handled: true, dir: Up, fwdTTL: "4", fwdSvc: "svc"}},
		{"down, elements in another order", walkOf(elemPayload, body, elemWalkID, "w-1", elemOrigin, urn, elemSvc, "svc", elemTTL, "100", elemDir, "down"),
			outcome{handled: true, dir: Down, fwdTTL: "99", fwdSvc: "svc"}},
		{"unknown direction reads as up", walkOf(elemDir, "sideways", elemTTL, "2", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body),
			outcome{handled: true, dir: Up, fwdTTL: "1", fwdSvc: "svc"}},
		{"last hop", walkOf(elemDir, "up", elemTTL, "1", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body),
			outcome{handled: true, dir: Up}},
		{"signed TTL", walkOf(elemDir, "up", elemTTL, "+3", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body),
			outcome{handled: true, dir: Up, fwdTTL: "2", fwdSvc: "svc"}},
		{"no handler for the service: relayed all the same", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "nosuch", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body),
			outcome{fwdTTL: "4", fwdSvc: "nosuch"}},
		{"no service", walkOf(elemDir, "up", elemTTL, "5", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body),
			outcome{fwdTTL: "4"}},
		{"first of duplicated elements wins", walkOf(elemDir, "down", elemDir, "up", elemTTL, "5", elemTTL, "9", elemSvc, "svc", elemSvc, "nosuch", elemOrigin, urn, elemWalkID, "w-1", elemWalkID, "w-2", elemPayload, body, elemPayload, "junk"),
			outcome{handled: true, dir: Down, fwdTTL: "4", fwdSvc: "svc"}},
		{"uppercase plain-form origin is sent on in canonical form", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn[:14]+strings.ToUpper(urn[14:46]), elemWalkID, "w-1", elemPayload, body),
			outcome{handled: true, dir: Up, fwdTTL: "4", fwdSvc: "svc"}},
		{"empty body frame", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, string(message.New().Marshal())),
			outcome{handled: true, dir: Up, fwdTTL: "4", fwdSvc: "svc"}},
		{"TTL zero", walkOf(elemDir, "up", elemTTL, "0", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body), outcome{}},
		{"TTL negative", walkOf(elemDir, "up", elemTTL, "-4", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body), outcome{}},
		{"TTL not a number", walkOf(elemDir, "up", elemTTL, "five", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body), outcome{}},
		{"no TTL", walkOf(elemDir, "up", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, body), outcome{}},
		{"no walk ID", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemPayload, body), outcome{}},
		{"empty walk ID", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "", elemPayload, body), outcome{}},
		{"the longest walk ID a node writes", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "0123abcd-18446744073709551615", elemPayload, body),
			outcome{handled: true, dir: Up, fwdTTL: "4", fwdSvc: "svc"}},
		{"a walk ID longer than any a node writes", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "0123abcd-184467440737095516150", elemPayload, body), outcome{}},
		{"bad origin", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, "garbage", elemWalkID, "w-1", elemPayload, body), outcome{}},
		{"no origin", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemWalkID, "w-1", elemPayload, body), outcome{}},
		{"no body", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1"), outcome{}},
		{"body is not a frame", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1", elemPayload, "JXM1\x05junk"), outcome{}},
		{"body of another namespace", walkOf(elemDir, "up", elemTTL, "5", elemSvc, "svc", elemOrigin, urn, elemWalkID, "w-1").AddString("other", elemPayload, body), outcome{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newWalkRig(t)
			in := readWalkHeader(c.msg)
			var got *outcome
			r.mid.svc.SetWalkHandler("svc", func(from ids.ID, dir Direction, b *message.Message) bool {
				got = &outcome{handled: true, dir: dir}
				if !from.Equal(origin) {
					t.Errorf("handler given origin %s", from.Short())
				}
				if want, err := message.Unmarshal(in.payload); err != nil || !bytes.Equal(b.Marshal(), want.Marshal()) {
					t.Errorf("handler given body %s, want %s (%v)", b, want, err)
				}
				return false
			})
			r.mid.svc.receiveWalk(ids.FromName(ids.KindPeer, "previous hop"), c.msg)
			if handled := got != nil; handled != c.want.handled || (handled && got.dir != c.want.dir) {
				t.Fatalf("handler outcome %+v, want %+v", got, c.want)
			}
			if c.want.fwdTTL == "" {
				if len(r.sent) != 0 {
					t.Fatalf("sent on: %s", r.sent[0])
				}
				return
			}
			if len(r.sent) != 1 {
				t.Fatalf("%d messages sent on, want 1", len(r.sent))
			}
			next := r.high
			if c.want.dir == Down {
				next = r.low
			}
			if r.sentTo[0] != next.tr.Addr() {
				t.Fatalf("sent on to %s, want %s", r.sentTo[0], next.tr.Addr())
			}
			fwd := r.sent[0]
			for name, want := range map[string]string{
				elemDir: c.want.dir.String(), elemTTL: c.want.fwdTTL, elemSvc: c.want.fwdSvc,
				elemOrigin: urn, elemWalkID: string(in.wid), elemPayload: string(in.payload),
			} {
				if got := fwd.GetString(walkNS, name); got != want {
					t.Errorf("sent on with %s=%q, want %q", name, got, want)
				}
			}
			// The same walk arriving again is handled and sent on again: no
			// walk can revisit a peer (TestWalkMovesStrictlyAlongTheIDOrder),
			// so a rendezvous remembers none.
			got, r.sent, r.sentTo = nil, nil, nil
			r.mid.svc.receiveWalk(ids.FromName(ids.KindPeer, "previous hop"), c.msg)
			if handled := got != nil; handled != c.want.handled || (handled && got.dir != c.want.dir) ||
				len(r.sent) != 1 || r.sentTo[0] != next.tr.Addr() || r.sent[0].GetString(walkNS, elemTTL) != c.want.fwdTTL {
				t.Fatalf("the same walk arriving again: handler outcome %+v, %d sent on", got, len(r.sent))
			}
		})
	}
}

// TestWalkBodyIsOnLoan is the WalkHandler contract: the *message.Message the
// handler is given is taken back when it returns (here: found empty), and
// what its elements pointed at is the delivered walk message's memory, which
// the transport reuses for later deliveries (and overwrites at once under
// -tags loancheck, see transport.TestDeliveredMessageIsOnLoan): a handler
// that wants the payload later copies it, and the copy stays what it read.
func TestWalkBodyIsOnLoan(t *testing.T) {
	r := newWalkRig(t)
	const sent = "payload the handler keeps"
	var kept *message.Message
	var copied []byte
	r.high.svc.SetWalkHandler("svc", func(_ ids.ID, _ Direction, b *message.Message) bool {
		kept = b
		view, _ := b.Get("app", "data")
		copied = append([]byte(nil), view...)
		if string(view) != sent || b.Elements()[0].Name != "data" {
			t.Errorf("handler given %s with payload %q", b, view)
		}
		return true
	})
	r.mid.svc.Walk(Up, 3, "svc", message.New().AddString("app", "data", sent))
	r.sched.Run(r.sched.Now() + time.Second)
	if kept == nil {
		t.Fatal("walk did not arrive")
	}
	if kept.Len() != 0 {
		t.Fatalf("the loaned message still holds %s after the handler returned", kept)
	}
	// Later walks reuse the pooled message and the delivery under it.
	r.high.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool { return true })
	for i := 0; i < 4; i++ {
		r.mid.svc.Walk(Up, 3, "svc", message.New().AddString("zzz", "other", strings.Repeat("\xff", 64)))
	}
	r.sched.Run(r.sched.Now() + time.Second)
	if string(copied) != sent {
		t.Fatalf("the copy the handler made now reads %q", copied)
	}
}

// FuzzReceiveWalk feeds receiveWalk arbitrary header bytes: it must not
// panic, whatever it hands on or drops.
func FuzzReceiveWalk(f *testing.F) {
	urn := ids.FromName(ids.KindPeer, "origin").String()
	body := message.New().AddString("disco", "Key", "k").Marshal()
	f.Add([]byte("up"), []byte("5"), []byte("svc"), []byte(urn), []byte("w-1"), body)
	f.Add([]byte("down"), []byte("1"), []byte(""), []byte("urn:jxta:nil"), []byte("w"), []byte("JXM1\x00"))
	f.Add([]byte(""), []byte("-1"), []byte("svc"), []byte("junk"), []byte(""), []byte(""))
	f.Add([]byte("up"), []byte("99999999999999999999"), []byte("svc"), []byte(urn[:40]), []byte("\xff\x00"), body[:len(body)/2])
	var rig *walkRig
	f.Fuzz(func(t *testing.T, dir, ttl, svc, origin, wid, payload []byte) {
		if rig == nil {
			rig = newWalkRig(t) // building one takes milliseconds: share it
			rig.mid.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool { return false })
		}
		m := message.New().Add(walkNS, elemDir, dir).Add(walkNS, elemTTL, ttl).Add(walkNS, elemSvc, svc).
			Add(walkNS, elemOrigin, origin).Add(walkNS, elemWalkID, wid).Add(walkNS, elemPayload, payload)
		rig.mid.svc.receiveWalk(ids.FromName(ids.KindPeer, "previous hop"), m)
		rig.sent, rig.sentTo = nil, nil
	})
}

// viewTier is one started rendezvous per ID whose peerview loop never runs,
// so a view holds exactly the members a test gives it: learn(p, q) sends q's
// advertisement to p as a peerview update, which p admits and answers with
// nothing.
type viewTier struct {
	sched *simnet.Scheduler
	net   *transport.Network
	peers []*rdvPeer // in the order of the IDs given
	advs  [][]byte
}

func newViewTier(t *testing.T, peerIDs []ids.ID) *viewTier {
	t.Helper()
	sched := simnet.NewScheduler(5)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	vt := &viewTier{sched: sched, net: net}
	for i, id := range peerIDs {
		name := fmt.Sprintf("rdv%d", i)
		e := sched.NewEnv(name)
		tr, err := net.Attach(name, netmodel.Site(i%netmodel.NumSites))
		if err != nil {
			t.Fatal(err)
		}
		adv := &advertisement.Rdv{PeerID: id, GroupID: testGroup, Name: name, Address: string(tr.Addr())}
		wire, err := advertisement.AppendXML(nil, adv)
		if err != nil {
			t.Fatal(err)
		}
		ep := endpoint.New(e, id, tr)
		pv := peerview.New(e, ep, advstore.New(), adv, peerview.DefaultConfig(), nil)
		svc := NewRendezvous(e, ep, pv, DefaultConfig())
		svc.Start()
		vt.peers = append(vt.peers, &rdvPeer{id: id, ep: ep, pv: pv, svc: svc, tr: tr})
		vt.advs = append(vt.advs, wire)
	}
	return vt
}

// learn puts peer q into peer p's view.
func (vt *viewTier) learn(p, q int) {
	vt.peers[q].ep.AddRoute(vt.peers[p].id, vt.peers[p].tr.Addr())
	m := message.New().AddString("pv", "Type", "update").Add("pv", "RdvAdv", vt.advs[q])
	_ = vt.peers[q].ep.Send(vt.peers[p].id, peerview.ServiceName, m)
}

// TestWalkMovesStrictlyAlongTheIDOrder is the invariant that lets a
// rendezvous remember no walk: over views that are random subsets of the
// tier, deliberately inconsistent with each other, every up walk visits
// strictly increasing IDs and every down walk strictly decreasing ones,
// starting past its origin, so no peer handles a walk, or the other
// direction's walk of the same query, twice.
func TestWalkMovesStrictlyAlongTheIDOrder(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(3))
	tierIDs := make([]ids.ID, n)
	for i := range tierIDs {
		tierIDs[i] = ids.NewRandom(ids.KindPeer, rng)
	}
	vt := newViewTier(t, tierIDs)
	for p := range vt.peers {
		for _, q := range rng.Perm(n)[:2+rng.Intn(6)] {
			if q != p {
				vt.learn(p, q)
			}
		}
	}
	vt.sched.Run(vt.sched.Now() + time.Second)
	type visit struct {
		peer ids.ID
		dir  Direction
	}
	visits := map[string][]visit{} // by walk, in the order handled
	for _, p := range vt.peers {
		at := p.id
		p.svc.SetWalkHandler("svc", func(_ ids.ID, dir Direction, b *message.Message) bool {
			w := b.GetString("test", "walk")
			visits[w] = append(visits[w], visit{at, dir})
			return false
		})
	}
	for i, p := range vt.peers {
		body := message.New().AddString("test", "walk", strconv.Itoa(i))
		p.svc.Walk(Up, n+1, "svc", body)
		p.svc.Walk(Down, n+1, "svc", body)
	}
	vt.sched.Run(vt.sched.Now() + time.Minute)
	hops := 0
	for i, origin := range vt.peers {
		last := map[Direction]ids.ID{Up: origin.id, Down: origin.id}
		handled := map[ids.ID]bool{origin.id: true}
		for _, v := range visits[strconv.Itoa(i)] {
			if c := v.peer.Compare(last[v.dir]); (v.dir == Up && c <= 0) || (v.dir == Down && c >= 0) {
				t.Fatalf("walk %d %s went from %s to %s", i, v.dir, last[v.dir].Short(), v.peer.Short())
			}
			if handled[v.peer] {
				t.Fatalf("walk %d visited %s twice", i, v.peer.Short())
			}
			last[v.dir], handled[v.peer] = v.peer, true
			hops++
		}
	}
	if hops < 2*n {
		t.Fatalf("%d hops in all for %d walks: the views hold too little to test", hops, 2*n)
	}
}

// TestWalksFromOneShortIDBothArrive: a walk ID is the origin's short ID and
// a counter, so two origins whose IDs share their leading 32 bits write the
// same ID for their first walk. Both walks are handled at the rendezvous
// they pass through.
func TestWalksFromOneShortIDBothArrive(t *testing.T) {
	byPrefix := map[uint32]ids.ID{}
	var a, b ids.ID
	for i := 0; a.IsNil(); i++ {
		id := ids.FromName(ids.KindPeer, "twin"+strconv.Itoa(i))
		if twin, ok := byPrefix[id.Prefix()]; ok {
			a, b = twin, id
		}
		byPrefix[id.Prefix()] = id
	}
	top := ids.FromName(ids.KindPeer, "top")
	for i := 0; top.Compare(a) <= 0 || top.Compare(b) <= 0; i++ {
		top = ids.FromName(ids.KindPeer, "top"+strconv.Itoa(i))
	}
	vt := newViewTier(t, []ids.ID{a, b, top})
	vt.learn(0, 2)
	vt.learn(1, 2)
	vt.sched.Run(vt.sched.Now() + time.Second)
	var from []ids.ID
	vt.peers[2].svc.SetWalkHandler("svc", func(origin ids.ID, _ Direction, _ *message.Message) bool {
		from = append(from, origin)
		return false
	})
	var wids []string
	vt.net.OnSend = func(_, _ transport.Addr, m *message.Message) {
		if endpoint.ServiceOf(m) == WalkService {
			wids = append(wids, m.GetString(walkNS, elemWalkID))
		}
	}
	for _, p := range vt.peers[:2] {
		p.svc.Walk(Up, 3, "svc", message.New().AddString("test", "walk", "x"))
	}
	vt.sched.Run(vt.sched.Now() + time.Second)
	if len(wids) != 2 || wids[0] != wids[1] {
		t.Fatalf("the two first walks carry IDs %q", wids)
	}
	if len(from) != 2 || !from[0].Equal(a) || !from[1].Equal(b) {
		t.Fatalf("walks %s from %s and %s: handled at the rendezvous above them from %v", wids[0], a.Short(), b.Short(), from)
	}
}
