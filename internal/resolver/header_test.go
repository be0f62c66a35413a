package resolver

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/message"
	"jxta/internal/simnet"
)

// headerOf builds a resolver message from name/value pairs, in order.
func headerOf(pairs ...string) *message.Message {
	m := message.New()
	for i := 0; i+1 < len(pairs); i += 2 {
		m.AddString(ns, pairs[i], pairs[i+1])
	}
	return m
}

// TestHeaderOutcomes pins what receive does with every shape of header:
// which reach the handler or the pending query's callback, with what fields,
// and which are dropped. The header is read as bytes; this is the behaviour
// the string-reading receive had.
func TestHeaderOutcomes(t *testing.T) {
	src := ids.FromName(ids.KindPeer, "origin")
	urn := src.String()
	cases := []struct {
		name    string
		msg     *message.Message
		query   *Query // the handler sees this
		respond string // the callback sees this payload, with hops
		hops    int
	}{
		{name: "query", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemSrcAddr, "sim://rennes/o", elemHops, "3", elemQuery, "q"),
			query: &Query{Handler: "svc", QID: 7, Src: src, SrcAddr: []byte("sim://rennes/o"), Hops: 3, Payload: []byte("q")}},
		{name: "query, elements in another order", msg: headerOf(elemQuery, "q", elemHops, "0", elemSrc, urn, elemQID, "18446744073709551615", elemHandler, "svc"),
			query: &Query{Handler: "svc", QID: 1<<64 - 1, Src: src, Payload: []byte("q")}},
		{name: "query with an empty payload", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, "0", elemQuery, ""),
			query: &Query{Handler: "svc", QID: 7, Src: src}},
		{name: "first of duplicated elements wins", msg: headerOf(elemHandler, "svc", elemHandler, "other", elemQID, "7", elemQID, "8", elemSrc, urn, elemHops, "1", elemHops, "2", elemQuery, "a", elemQuery, "b"),
			query: &Query{Handler: "svc", QID: 7, Src: src, Hops: 1, Payload: []byte("a")}},
		{name: "uppercase plain-form source", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn[:14]+strings.ToUpper(urn[14:46]), elemHops, "0", elemQuery, "q"),
			query: &Query{Handler: "svc", QID: 7, Src: src, Payload: []byte("q")}},
		{name: "plain-form source, signed hops", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn[:46], elemHops, "+5", elemQuery, "q"),
			query: &Query{Handler: "svc", QID: 7, Src: src, Hops: 5, Payload: []byte("q")}},
		{name: "last hop allowed", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, strconv.Itoa(MaxHops-1), elemQuery, "q"),
			query: &Query{Handler: "svc", QID: 7, Src: src, Hops: MaxHops - 1, Payload: []byte("q")}},
		{name: "hop limit", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, strconv.Itoa(MaxHops), elemQuery, "q")},
		{name: "negative hops", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, "-1", elemQuery, "q")},
		{name: "hops not a number", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, "three", elemQuery, "q")},
		{name: "no hops", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemQuery, "q")},
		{name: "no QID", msg: headerOf(elemHandler, "svc", elemSrc, urn, elemHops, "0", elemQuery, "q")},
		{name: "signed QID", msg: headerOf(elemHandler, "svc", elemQID, "+7", elemSrc, urn, elemHops, "0", elemQuery, "q")},
		{name: "QID overflow", msg: headerOf(elemHandler, "svc", elemQID, "18446744073709551616", elemSrc, urn, elemHops, "0", elemQuery, "q")},
		{name: "bad source", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, "garbage", elemHops, "0", elemQuery, "q")},
		{name: "no source", msg: headerOf(elemHandler, "svc", elemQID, "7", elemHops, "0", elemQuery, "q")},
		{name: "unknown handler", msg: headerOf(elemHandler, "nosuch", elemQID, "7", elemSrc, urn, elemHops, "0", elemQuery, "q")},
		{name: "handler name is a prefix", msg: headerOf(elemHandler, "sv", elemQID, "7", elemSrc, urn, elemHops, "0", elemQuery, "q")},
		{name: "neither query nor response", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, "0")},
		{name: "element of another namespace", msg: headerOf(elemHandler, "svc", elemQID, "7", elemSrc, urn, elemHops, "0").AddString("other", elemQuery, "q")},

		{name: "response", msg: headerOf(elemHandler, "svc", elemQID, "1", elemHops, "4", elemResponse, "r"), respond: "r", hops: 4},
		{name: "response wins over query", msg: headerOf(elemQID, "1", elemQuery, "q", elemResponse, "r", elemSrc, "garbage"), respond: "r"},
		{name: "response without hops", msg: headerOf(elemQID, "1", elemResponse, "r"), respond: "r"},
		{name: "response with bad hops", msg: headerOf(elemQID, "1", elemHops, "-3", elemResponse, "r"), respond: "r"},
		{name: "empty response", msg: headerOf(elemQID, "1", elemResponse, ""), respond: "", hops: -1},
		{name: "response to an unknown query", msg: headerOf(elemQID, "99", elemResponse, "r")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := simnet.NewScheduler(1)
			ps := newPeers(t, sched, 2)
			a, b := ps[0], ps[1]
			var got *Query
			b.res.RegisterHandler("other", func(q *Query) { t.Errorf("the wrong handler got %+v", q) })
			b.res.RegisterHandler("svc", func(q *Query) { got = keep(q) })
			var answer *string
			answerHops := 0
			b.res.Timeout = 0
			qid, err := b.res.SendQuery(a.id, "svc", nil, func(p []byte, from ids.ID, hops int) {
				s := string(p)
				answer, answerHops = &s, hops
				if !from.Equal(a.id) {
					t.Errorf("response attributed to %s", from.Short())
				}
			}, nil)
			if err != nil || qid != 1 {
				t.Fatal(qid, err)
			}
			b.res.receive(a.id, c.msg)
			switch {
			case c.query == nil && got != nil:
				t.Fatalf("handler ran with %+v, want a drop", got)
			case c.query != nil && got == nil:
				t.Fatal("dropped, want the handler to run")
			case c.query != nil:
				if got.Handler != c.query.Handler || got.QID != c.query.QID || got.Src != c.query.Src ||
					string(got.SrcAddr) != string(c.query.SrcAddr) || got.Hops != c.query.Hops || string(got.Payload) != string(c.query.Payload) {
					t.Fatalf("handler got %+v, want %+v", got, c.query)
				}
			}
			wantAnswer := c.respond != "" || c.hops == -1
			switch {
			case !wantAnswer && answer != nil:
				t.Fatalf("callback ran with %q, want none", *answer)
			case wantAnswer && answer == nil:
				t.Fatal("callback did not run")
			case wantAnswer && (*answer != c.respond || answerHops != max(c.hops, 0)):
				t.Fatalf("callback got %q after %d hops, want %q after %d", *answer, answerHops, c.respond, max(c.hops, 0))
			}
		})
	}
}

// TestRoundTripAllocs gates what one lookup costs the resolver layer: a
// query sent, forwarded once and answered, over transport.Sim, its deadline
// armed and cancelled. It is nothing. The originator's pending entry is a
// recycled record that arms its deadline with a callback bound once (entry
// and closure cost 1 and 1 while each query made its own), headers are built in pooled messages and read in
// place, the three messages cross the transport in recycled records, and the
// two peers that receive the query lend their handler the Query they keep
// for it, return address included, where each used to allocate both (5 in
// all).
func TestRoundTripAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sched := simnet.NewScheduler(1)
	ps := newPeers(t, sched, 3)
	a, b, c := ps[0], ps[1], ps[2]
	b.res.RegisterHandler("svc", func(q *Query) {
		if err := b.res.Forward(q, c.id); err != nil {
			t.Error(err)
		}
	})
	answer := []byte("<disco:R></disco:R>")
	c.res.RegisterHandler("svc", func(q *Query) {
		if err := c.res.Respond(q, answer); err != nil {
			t.Error(err)
		}
	})
	answers := 0
	cb := func([]byte, ids.ID, int) { answers++ }
	payload := []byte("<disco:Q></disco:Q>")
	roundTrip := func() {
		if _, err := a.res.SendQuery(b.id, "svc", payload, cb, nil); err != nil {
			t.Fatal(err)
		}
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
	roundTrip() // learn return routes, fill pools and the free list
	const want = 0
	got := testing.AllocsPerRun(200, roundTrip)
	t.Logf("round trip: %.2f allocations", got)
	if got != want {
		t.Errorf("query → forward → respond costs %.1f allocations, want %d", got, want)
	}
	if answers != 202 {
		t.Fatalf("%d answers arrived, want 202", answers)
	}
}

// FuzzReceive feeds receive arbitrary header bytes. It must not panic, must
// hand a handler only hop counts inside the bound, must keep the loan (the
// handler is lent a Query whose return address and payload are the header's
// bytes, and when it returns that Query is zeroed and kept for the next), and
// must change the pending table only as a response completing a query does:
// a response whose QID is one of the two issued removes that entry, and
// nothing else grows or shrinks the table.
func FuzzReceive(f *testing.F) {
	urn := ids.FromName(ids.KindPeer, "origin").String()
	f.Add([]byte("svc"), []byte("7"), []byte(urn), []byte("sim://rennes/o"), []byte("3"), []byte("q"), uint8(1))
	f.Add([]byte("svc"), []byte("1"), []byte(""), []byte(""), []byte("2"), []byte("r"), uint8(2))
	f.Add([]byte("nosuch"), []byte("-1"), []byte("urn:jxta:uuid-00"), []byte("x"), []byte("1024"), []byte(""), uint8(3))
	f.Add([]byte(""), []byte("99999999999999999999999"), []byte("urn:jxta:nil"), []byte(""), []byte("-5"), []byte("q"), uint8(0))
	f.Add([]byte("svc"), []byte("2"), []byte(urn), []byte(""), []byte("0"), []byte("r"), uint8(3))
	f.Fuzz(func(t *testing.T, handler, qid, src, srcAddr, hops, payload []byte, kind uint8) {
		sched := simnet.NewScheduler(1)
		ps := newPeers(t, sched, 2)
		a, b := ps[0], ps[1]
		var got Query // as lent, read during the call
		var lent *Query
		b.res.RegisterHandler("svc", func(q *Query) { got, lent = *q, q })
		b.res.Timeout = 0
		answered := map[uint64]bool{}
		for want := uint64(1); want <= 2; want++ {
			issued, err := b.res.SendQuery(a.id, "svc", nil, func([]byte, ids.ID, int) { answered[want] = true }, nil)
			if err != nil || issued != want {
				t.Fatal(issued, err)
			}
		}
		m := message.New().Add(ns, elemHandler, handler).Add(ns, elemQID, qid).Add(ns, elemSrc, src).
			Add(ns, elemSrcAddr, srcAddr).Add(ns, elemHops, hops)
		if kind&1 != 0 {
			m.Add(ns, elemQuery, payload)
		}
		if kind&2 != 0 {
			m.Add(ns, elemResponse, payload)
		}
		completes, err := strconv.ParseUint(string(qid), 10, 64)
		if err != nil || kind&2 == 0 {
			completes = 0
		}
		b.res.receive(a.id, m)
		for issued := uint64(1); issued <= 2; issued++ {
			_, held := b.res.pending[issued]
			if held == (issued == completes) || answered[issued] != (issued == completes) {
				t.Fatalf("query %d: pending %v, answered %v after a message completing %d", issued, held, answered[issued], completes)
			}
		}
		if want := 2 - len(answered); len(b.res.pending) != want {
			t.Fatalf("pending table holds %d entries, want %d", len(b.res.pending), want)
		}
		if lent == nil {
			return
		}
		if got.Hops < 0 || got.Hops >= MaxHops {
			t.Fatalf("handler given %d hops", got.Hops)
		}
		if got.Handler != "svc" || !bytes.Equal(got.SrcAddr, srcAddr) || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("handler lent %+v for return address %q and payload %q", got, srcAddr, payload)
		}
		if lent.Handler != "" || lent.QID != 0 || !lent.Src.IsNil() || lent.SrcAddr != nil || lent.Hops != 0 || lent.Payload != nil {
			t.Fatalf("the loan outlived the handler call: %+v", *lent)
		}
		if b.res.lent != lent {
			t.Fatal("the lent Query was not kept for the next query")
		}
	})
}

// TestQueriesFromInsideCallbacks: a query that is forwarded and answered
// passes through three peers' pooled messages, and the originator's
// callback asks again from inside, six times over. Every message must
// arrive with its own header and payload.
func TestQueriesFromInsideCallbacks(t *testing.T) {
	sched := simnet.NewScheduler(1)
	ps := newPeers(t, sched, 3)
	a, b, c := ps[0], ps[1], ps[2]
	b.res.RegisterHandler("svc", func(q *Query) {
		if q.Hops != 0 || !q.Src.Equal(a.id) {
			t.Errorf("b got %+v", q)
		}
		if err := b.res.Forward(q, c.id); err != nil {
			t.Error(err)
		}
	})
	c.res.RegisterHandler("svc", func(q *Query) {
		if q.Hops != 1 || !q.Src.Equal(a.id) || string(q.SrcAddr) != string(a.ep.Addr()) {
			t.Errorf("c got %+v", q)
		}
		if err := c.res.Respond(q, append([]byte("re:"), q.Payload...)); err != nil {
			t.Error(err)
		}
	})
	var log []string
	var ask func(depth int)
	ask = func(depth int) {
		want := fmt.Sprintf("re:question %d", depth)
		_, err := a.res.SendQuery(b.id, "svc", []byte(want[3:]), func(p []byte, from ids.ID, hops int) {
			log = append(log, string(p))
			if string(p) != want || !from.Equal(c.id) || hops != 1 {
				t.Errorf("depth %d: answer %q from %s after %d hops", depth, p, from.Short(), hops)
			}
			if depth < 5 {
				ask(depth + 1)
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	ask(0)
	sched.Run(time.Minute)
	if want := "re:question 0 re:question 1 re:question 2 re:question 3 re:question 4 re:question 5"; strings.Join(log, " ") != want {
		t.Fatalf("answers arrived as %q", log)
	}
}
