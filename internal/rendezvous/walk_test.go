package rendezvous

import (
	"bytes"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
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
			// The same walk arriving again — an inconsistent view looped it —
			// is dropped whole.
			got, r.sent = nil, nil
			r.mid.svc.receiveWalk(ids.FromName(ids.KindPeer, "previous hop"), c.msg)
			if got != nil || len(r.sent) != 0 {
				t.Fatal("a walk seen before was handled or sent on again")
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
// panic, must keep the walk dedup set inside its bound, must remember no walk
// ID longer than maxWalkID, and must keep no reference to the header it read
// (the one thing it stores, the walk ID's key, is compared after the input
// has been overwritten).
func FuzzReceiveWalk(f *testing.F) {
	urn := ids.FromName(ids.KindPeer, "origin").String()
	body := message.New().AddString("disco", "Key", "k").Marshal()
	f.Add([]byte("up"), []byte("5"), []byte("svc"), []byte(urn), []byte("w-1"), body)
	f.Add([]byte("down"), []byte("1"), []byte(""), []byte("urn:jxta:nil"), []byte("w"), []byte("JXM1\x00"))
	f.Add([]byte(""), []byte("-1"), []byte("svc"), []byte("junk"), []byte(""), []byte(""))
	f.Add([]byte("up"), []byte("99999999999999999999"), []byte("svc"), []byte(urn[:40]), []byte("\xff\x00"), body[:len(body)/2])
	var rig *walkRig
	f.Fuzz(func(t *testing.T, dir, ttl, svc, origin, wid, payload []byte) {
		if rig == nil || len(rig.mid.svc.srv.walkSeen) > 64 {
			rig = newWalkRig(t) // building one takes milliseconds: share it
			rig.mid.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool { return false })
		}
		s := rig.mid.svc
		before := len(s.srv.walkSeen)
		m := message.New().Add(walkNS, elemDir, dir).Add(walkNS, elemTTL, ttl).Add(walkNS, elemSvc, svc).
			Add(walkNS, elemOrigin, origin).Add(walkNS, elemWalkID, wid).Add(walkNS, elemPayload, payload)
		key, _ := walkKeyOf(wid)
		s.receiveWalk(ids.FromName(ids.KindPeer, "previous hop"), m)
		if grown := len(s.srv.walkSeen) - before; grown > 1 || len(s.srv.walkSeen) > walkSeenLimit || (grown == 1 && len(wid) > maxWalkID) {
			t.Fatalf("walk dedup set grew by %d to %d on a walk ID of %d bytes", grown, len(s.srv.walkSeen), len(wid))
		}
		stored := s.srv.walkSeen[key]
		for _, in := range [][]byte{dir, ttl, svc, origin, wid, payload} {
			for i := range in {
				in[i] ^= 0xff
			}
		}
		if s.srv.walkSeen[key] != stored {
			t.Fatalf("walk ID %q left the dedup set when the header was overwritten", key[1:1+key[0]])
		}
		rig.sent, rig.sentTo = nil, nil
	})
}

// TestWalkSeenStaysBounded: walk IDs come off the wire; the set that
// remembers them holds each until it resets, rather than grow past its
// limit.
func TestWalkSeenStaysBounded(t *testing.T) {
	r := newWalkRig(t)
	urn := ids.FromName(ids.KindPeer, "origin").String()
	body := string(message.New().Marshal())
	wid := []byte("w-00000")
	for i := 0; i < walkSeenLimit+10; i++ {
		for j := len(wid) - 1; ; j-- { // next decimal
			if wid[j]++; wid[j] <= '9' {
				break
			}
			wid[j] = '0'
		}
		r.mid.svc.receiveWalk(r.low.id, walkOf(elemDir, "up", elemTTL, "1", elemOrigin, urn, elemWalkID, string(wid), elemPayload, body))
		seen := r.mid.svc.srv.walkSeen
		if n := len(seen); n > walkSeenLimit {
			t.Fatalf("walk dedup set holds %d IDs, limit %d", n, walkSeenLimit)
		}
		if key, _ := walkKeyOf(wid); seen != nil && !seen[key] {
			t.Fatalf("walk ID %s is not in the dedup set, which was not reset", wid)
		}
	}
}

// TestWalkSeenMatchesAStringSet holds the fixed-size dedup key to the set of
// strings it replaced: over walk IDs as nodes write them, with repeats, IDs
// that differ only in length or in a trailing byte, the longest ID a node
// writes, and a run past walkSeenLimit that resets the set, receiveWalk hands
// a walk to its handler exactly when a map[string]bool, reset at the same
// size, has not seen its ID. An ID longer than maxWalkID is no node's, and is
// dropped.
func TestWalkSeenMatchesAStringSet(t *testing.T) {
	r := newWalkRig(t)
	handled := false
	r.mid.svc.SetWalkHandler("svc", func(ids.ID, Direction, *message.Message) bool { handled = true; return false })
	urn := ids.FromName(ids.KindPeer, "origin").String()
	body := string(message.New().Marshal())
	var wids []string
	early := []string{"0123abcd-1", "0123abcd-1", "0123abcd-10", "0123abcd-1\x00", "0123abce-1", "nil-1",
		"0123abcd-18446744073709551615", "0123abcd-18446744073709551615", "0123abcd-184467440737095516150"}
	wids = append(wids, early...)
	var id [4]byte
	for i := 0; i < walkSeenLimit+100; i++ {
		id[i%4]++
		wids = append(wids, string(strconv.AppendInt(append(hex.AppendEncode(nil, id[:]), '-'), int64(i), 10)))
	}
	wids = append(wids, early...) // after the reset: unseen again
	ref := map[string]bool{}
	for i, wid := range wids {
		var want bool // the handler runs
		if len(wid) <= maxWalkID {
			want = !ref[wid]
			ref[wid] = true
			if len(ref) > walkSeenLimit {
				ref = map[string]bool{}
			}
		}
		handled = false
		r.mid.svc.receiveWalk(r.low.id, walkOf(elemDir, "up", elemTTL, "1", elemSvc, "svc", elemOrigin, urn, elemWalkID, wid, elemPayload, body))
		if handled != want {
			t.Fatalf("walk %d, ID %q: handled %v, a string set says %v", i, wid, handled, want)
		}
	}
}
