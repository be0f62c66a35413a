package resolver

import (
	"bytes"
	"fmt"
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

type peer struct {
	id  ids.ID
	ep  *endpoint.Endpoint
	res *Service
	tr  *transport.Sim
}

func newPeers(t *testing.T, sched *simnet.Scheduler, n int) []*peer {
	t.Helper()
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	peers := make([]*peer, n)
	for i := range peers {
		name := fmt.Sprintf("p%d", i)
		e := sched.NewEnv(name)
		tr, err := net.Attach(name, netmodel.Site(i%netmodel.NumSites))
		if err != nil {
			t.Fatal(err)
		}
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		ep := endpoint.New(e, id, tr)
		peers[i] = &peer{id: id, ep: ep, res: New(e, ep), tr: tr}
	}
	// Full mesh of routes for test convenience.
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.ep.AddRoute(b.id, b.tr.Addr())
			}
		}
	}
	return peers
}

// keep copies a lent query, as the loan contract asks of a handler that keeps
// one past its return: the struct and the bytes behind both views.
func keep(q *Query) *Query {
	c := *q
	c.SrcAddr, c.Payload = bytes.Clone(q.SrcAddr), bytes.Clone(q.Payload)
	return &c
}

func TestQueryResponse(t *testing.T) {
	sched := simnet.NewScheduler(1)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	b.res.RegisterHandler("echo", func(q *Query) {
		b.res.Respond(q, append([]byte("echo:"), q.Payload...))
	})
	var got string
	var from ids.ID
	_, err := a.res.SendQuery(b.id, "echo", []byte("hi"), func(p []byte, src ids.ID, _ int) {
		got = string(p)
		from = src
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if got != "echo:hi" || !from.Equal(b.id) {
		t.Fatalf("got=%q from=%s", got, from.Short())
	}
}

func TestQueryFields(t *testing.T) {
	sched := simnet.NewScheduler(2)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	// The query is on loan for the handler call, and a handler that keeps
	// it keeps a copy.
	var seen *Query
	b.res.RegisterHandler("inspect", func(q *Query) { seen = keep(q) })
	qid, _ := a.res.SendQuery(b.id, "inspect", []byte("xyz"), func([]byte, ids.ID, int) {}, nil)
	sched.Run(time.Second)
	if seen == nil {
		t.Fatal("handler never ran")
	}
	if seen.QID != qid || !seen.Src.Equal(a.id) || seen.Hops != 0 ||
		seen.Handler != "inspect" || string(seen.Payload) != "xyz" {
		t.Fatalf("query fields: %+v (qid want %d)", seen, qid)
	}
	if string(seen.SrcAddr) != string(a.tr.Addr()) {
		t.Fatalf("SrcAddr = %s", seen.SrcAddr)
	}
}

func TestForwardPreservesOriginator(t *testing.T) {
	sched := simnet.NewScheduler(3)
	ps := newPeers(t, sched, 3)
	a, b, c := ps[0], ps[1], ps[2]
	// b forwards everything to c; c answers.
	b.res.RegisterHandler("svc", func(q *Query) { b.res.Forward(q, c.id) })
	var atC *Query
	c.res.RegisterHandler("svc", func(q *Query) {
		atC = keep(q)
		c.res.Respond(q, []byte("from-c"))
	})
	var got string
	a.res.SendQuery(b.id, "svc", []byte("q"), func(p []byte, _ ids.ID, _ int) { got = string(p) }, nil)
	sched.Run(time.Second)
	if atC == nil || !atC.Src.Equal(a.id) || atC.Hops != 1 {
		t.Fatalf("forwarded query wrong: %+v", atC)
	}
	if got != "from-c" {
		t.Fatalf("response = %q; direct response after forward failed", got)
	}
}

func TestResponderWithoutPriorRouteUsesSrcAddr(t *testing.T) {
	// c never knew a; the query's SrcAddr must be enough to respond.
	sched := simnet.NewScheduler(4)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	mk := func(name string) *peer {
		e := sched.NewEnv(name)
		tr, _ := net.Attach(name, netmodel.Rennes)
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		ep := endpoint.New(e, id, tr)
		return &peer{id: id, ep: ep, res: New(e, ep), tr: tr}
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	a.ep.AddRoute(b.id, b.tr.Addr())
	b.ep.AddRoute(c.id, c.tr.Addr())
	b.res.RegisterHandler("svc", func(q *Query) { b.res.Forward(q, c.id) })
	c.res.RegisterHandler("svc", func(q *Query) { c.res.Respond(q, []byte("ok")) })
	var got string
	a.res.SendQuery(b.id, "svc", nil, func(p []byte, _ ids.ID, _ int) { got = string(p) }, nil)
	sched.Run(time.Second)
	if got != "ok" {
		t.Fatal("response never reached originator lacking prior route")
	}
}

func TestTimeoutFires(t *testing.T) {
	sched := simnet.NewScheduler(5)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	b.res.RegisterHandler("void", func(q *Query) {}) // never answers
	a.res.Timeout = 5 * time.Second
	timedOut := false
	responded := false
	a.res.SendQuery(b.id, "void", nil,
		func([]byte, ids.ID, int) { responded = true },
		func(uint64) { timedOut = true })
	sched.Run(time.Minute)
	if !timedOut || responded {
		t.Fatalf("timedOut=%v responded=%v", timedOut, responded)
	}
}

func TestResponseAfterTimeoutIgnored(t *testing.T) {
	sched := simnet.NewScheduler(6)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	var saved *Query
	b.res.RegisterHandler("late", func(q *Query) { saved = keep(q) })
	a.res.Timeout = time.Second
	responses := 0
	a.res.SendQuery(b.id, "late", nil, func([]byte, ids.ID, int) { responses++ }, nil)
	sched.Run(10 * time.Second)
	// Answer long after the timeout.
	b.res.Respond(saved, []byte("too late"))
	sched.Run(20 * time.Second)
	if responses != 0 {
		t.Fatal("late response reached the callback")
	}
}

// TestMultipleResponses: b answers and forwards to c, which answers too. A
// query completes on the first answer, so c's never reaches cb; a collecting
// query hears both, and its deadline is not a time-out.
func TestMultipleResponses(t *testing.T) {
	for _, collect := range []bool{false, true} {
		name, want := "first-answer", "b"
		if collect {
			name, want = "collect", "b c"
		}
		t.Run(name, func(t *testing.T) {
			sched := simnet.NewScheduler(7)
			ps := newPeers(t, sched, 3)
			a, b, c := ps[0], ps[1], ps[2]
			b.res.RegisterHandler("multi", func(q *Query) {
				b.res.Respond(q, []byte("b"))
				b.res.Forward(q, c.id)
			})
			c.res.RegisterHandler("multi", func(q *Query) { c.res.Respond(q, []byte("c")) })
			send := a.res.SendQuery
			if collect {
				send = a.res.SendCollect
			}
			var got []string
			timedOut := false
			send(b.id, "multi", nil, func(p []byte, _ ids.ID, _ int) { got = append(got, string(p)) },
				func(uint64) { timedOut = true })
			sched.Run(time.Minute)
			if strings.Join(got, " ") != want || timedOut || !a.res.Quiescent() {
				t.Fatalf("got %v, timed out %v, quiescent %v; want %q, no time-out, quiescent", got, timedOut, a.res.Quiescent(), want)
			}
		})
	}
}

// TestCancelDropsResponses: Stop cancels every pending query, so the answer
// that arrives afterwards is dropped and the timeout never fires.
func TestCancelDropsResponses(t *testing.T) {
	sched := simnet.NewScheduler(8)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	answered := false
	b.res.RegisterHandler("slow", func(q *Query) { answered = b.res.Respond(q, []byte("x")) == nil })
	calls := 0
	a.res.SendQuery(b.id, "slow", nil, func([]byte, ids.ID, int) { calls++ }, func(uint64) { calls++ })
	a.res.Stop()
	sched.Run(time.Minute)
	if calls != 0 {
		t.Fatal("canceled query still delivered a response or timed out")
	}
	if !answered {
		t.Fatal("b never answered: the test shows nothing")
	}
}

func TestUnknownHandlerIgnored(t *testing.T) {
	sched := simnet.NewScheduler(9)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	timedOut := false
	a.res.Timeout = 2 * time.Second
	a.res.SendQuery(b.id, "nobody-home", nil, func([]byte, ids.ID, int) {
		t.Error("response from unregistered handler")
	}, func(uint64) { timedOut = true })
	sched.Run(time.Minute)
	if !timedOut {
		t.Fatal("query to unknown handler did not time out")
	}
}

func TestSendQueryNoRoute(t *testing.T) {
	sched := simnet.NewScheduler(10)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	e := sched.NewEnv("solo")
	tr, _ := net.Attach("solo", netmodel.Rennes)
	id := ids.NewRandom(ids.KindPeer, e.Rand())
	ep := endpoint.New(e, id, tr)
	res := New(e, ep)
	ghost := ids.FromName(ids.KindPeer, "ghost")
	if _, err := res.SendQuery(ghost, "svc", nil, func([]byte, ids.ID, int) {}, nil); err == nil {
		t.Fatal("SendQuery without route succeeded")
	}
}

func TestMalformedResolverMessagesIgnored(t *testing.T) {
	sched := simnet.NewScheduler(11)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	handled := 0
	b.res.RegisterHandler("svc", func(q *Query) { handled++ })
	// No QID.
	m1 := message.New().AddString(ns, elemHandler, "svc")
	a.ep.Send(b.id, ServiceName, m1)
	// Bad hop count.
	m2 := message.New()
	m2.AddString(ns, elemHandler, "svc")
	m2.AddString(ns, elemQID, "7")
	m2.AddString(ns, elemSrc, a.id.String())
	m2.AddString(ns, elemHops, "notanumber")
	m2.Add(ns, elemQuery, []byte("x"))
	a.ep.Send(b.id, ServiceName, m2)
	// Bad src.
	m3 := message.New()
	m3.AddString(ns, elemHandler, "svc")
	m3.AddString(ns, elemQID, "8")
	m3.AddString(ns, elemSrc, "garbage")
	m3.AddString(ns, elemHops, "0")
	m3.Add(ns, elemQuery, []byte("x"))
	a.ep.Send(b.id, ServiceName, m3)
	sched.Run(time.Second)
	if handled != 0 {
		t.Fatalf("malformed messages handled %d times", handled)
	}
}

func TestForwardHopLimit(t *testing.T) {
	sched := simnet.NewScheduler(12)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	// a and b bounce the query between each other forever; the hop limit
	// must kill it.
	bounces := 0
	a.res.RegisterHandler("pingpong", func(q *Query) {
		bounces++
		a.res.Forward(q, b.id)
	})
	b.res.RegisterHandler("pingpong", func(q *Query) {
		bounces++
		b.res.Forward(q, a.id)
	})
	a.res.SendQuery(b.id, "pingpong", nil, func([]byte, ids.ID, int) {}, nil)
	sched.Run(time.Hour)
	if bounces == 0 || bounces > 2*MaxHops {
		t.Fatalf("bounces = %d, hop limit broken", bounces)
	}
}

func BenchmarkQueryResponse(b *testing.B) {
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	mk := func(name string) *peer {
		e := sched.NewEnv(name)
		tr, _ := net.Attach(name, netmodel.Rennes)
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		ep := endpoint.New(e, id, tr)
		return &peer{id: id, ep: ep, res: New(e, ep), tr: tr}
	}
	x, y := mk("x"), mk("y")
	x.ep.AddRoute(y.id, y.tr.Addr())
	y.res.RegisterHandler("echo", func(q *Query) { y.res.Respond(q, q.Payload) })
	payload := []byte("benchmark")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.res.SendQuery(y.id, "echo", payload, func([]byte, ids.ID, int) {}, nil); err != nil {
			b.Fatal(err)
		}
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
}

// TestReturnsToZeroState: a resolver is small by construction. Fresh, it
// holds no map and is quiescent; a query allocates the pending table, the
// response drains it, and the handler registrations, which are not per-query
// state, survive.
func TestReturnsToZeroState(t *testing.T) {
	sched := simnet.NewScheduler(9)
	ps := newPeers(t, sched, 2)
	a, b := ps[0], ps[1]
	a.res.RegisterHandler("echo", func(*Query) {})
	b.res.RegisterHandler("echo", func(q *Query) { b.res.Respond(q, q.Payload) })
	if a.res.pending != nil || !a.res.Quiescent() {
		t.Fatal("fresh resolver allocated its pending table or is not quiescent")
	}
	answered := false
	_, err := a.res.SendQuery(b.id, "echo", []byte("x"), func([]byte, ids.ID, int) { answered = true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.res.Quiescent() {
		t.Fatal("resolver with a query in flight reports quiescent")
	}
	sched.Run(time.Minute)
	if !answered || !a.res.Quiescent() {
		t.Fatalf("answered=%v quiescent=%v after the exchange", answered, a.res.Quiescent())
	}
	if a.res.name != "echo" || a.res.h == nil {
		t.Fatal("handler registration did not survive the exchange")
	}
}

// TestRecycledQueryIgnoresLateResponse: a pending query's record is reused by
// the next query once the first has finished, so what identifies a query is
// its QID, not its record. Query A is answered, B reuses A's record, and then
// a second answer to A arrives: it must reach neither callback, and B's
// deadline must fire B's time-out alone. A collecting query finishes at its
// deadline, not at its first answer, and is held to the same rule.
func TestRecycledQueryIgnoresLateResponse(t *testing.T) {
	for _, collect := range []bool{false, true} {
		name := "first-answer"
		if collect {
			name = "collect"
		}
		t.Run(name, func(t *testing.T) {
			sched := simnet.NewScheduler(13)
			ps := newPeers(t, sched, 2)
			a, b := ps[0], ps[1]
			// b answers the first query it sees and keeps every query.
			var kept []*Query
			b.res.RegisterHandler("svc", func(q *Query) {
				kept = append(kept, keep(q))
				if len(kept) == 1 {
					b.res.Respond(q, []byte("first"))
				}
			})
			a.res.Timeout = 5 * time.Second
			send := a.res.SendQuery
			if collect {
				send = a.res.SendCollect
			}
			var log []string
			issue := func(name string) uint64 {
				qid, err := send(b.id, "svc", nil,
					func(p []byte, _ ids.ID, _ int) { log = append(log, name+" answered "+string(p)) },
					func(qid uint64) { log = append(log, fmt.Sprintf("%s timed out (%d)", name, qid)) })
				if err != nil {
					t.Fatal(err)
				}
				return qid
			}
			qidA := issue("A")
			recA := a.res.pending[qidA]
			sched.Run(time.Minute) // A is answered and, collecting, reaches its deadline
			if _, held := a.res.pending[qidA]; held {
				t.Fatal("A is still pending")
			}
			qidB := issue("B")
			if a.res.pending[qidB] != recA {
				t.Fatal("B did not reuse A's record: the test shows nothing")
			}
			sched.Run(sched.Now() + time.Second) // B reaches b, which keeps it unanswered
			if len(kept) != 2 {
				t.Fatalf("b saw %d queries, want 2", len(kept))
			}
			if err := b.res.Respond(kept[0], []byte("late")); err != nil { // a second answer to A
				t.Fatal(err)
			}
			sched.Run(sched.Now() + time.Minute)
			want := []string{"A answered first", fmt.Sprintf("B timed out (%d)", qidB)}
			if strings.Join(log, "; ") != strings.Join(want, "; ") || !a.res.Quiescent() {
				t.Fatalf("callbacks ran as %q, quiescent %v; want %q, quiescent", log, a.res.Quiescent(), want)
			}
		})
	}
}
