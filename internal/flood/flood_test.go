package flood

import (
	"testing"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/resolver"
	"jxta/internal/routing"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

func build(t testing.TB, n, k int, seed int64) (*simnet.Scheduler, *transport.Network, *Network) {
	t.Helper()
	sched := simnet.NewScheduler(seed)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	fn, err := Build(sched, net, n, k)
	if err != nil {
		t.Fatal(err)
	}
	return sched, net, fn
}

// query floods a lookup for key from n with the given TTL; done hears the
// first answer's hop count and latency.
func query(n *node, key string, ttl int, done func(hops int, elapsed time.Duration)) {
	start := n.net.sched.Now()
	n.query(key, ttl, func(_ []byte, _ ids.ID, hops int) { done(hops, n.net.sched.Now()-start) })
}

func TestBuildErrors(t *testing.T) {
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	if _, err := Build(sched, net, 0, 3); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Build(sched, net, 3, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestGraphConnectedWithDegreeK(t *testing.T) {
	_, _, fn := build(t, 40, 4, 2)
	for i, n := range fn.nodes {
		if len(n.neighbors) < 4 {
			t.Fatalf("node %d degree %d < 4", i, len(n.neighbors))
		}
	}
	// BFS connectivity.
	seen := map[int]bool{0: true}
	queue := []int{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range fn.nodes[cur].neighbors {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != 40 {
		t.Fatalf("graph disconnected: reached %d of 40", len(seen))
	}
}

func TestQueryFindsPublishedKey(t *testing.T) {
	sched, _, fn := build(t, 30, 3, 3)
	nodes := fn.nodes
	fn.Publish(17, "PeerNameTest")
	done := false
	var hops int
	query(nodes[0], "PeerNameTest", 30, func(h int, d time.Duration) {
		done = true
		hops = h
		if d <= 0 {
			t.Error("latency not measured")
		}
	})
	sched.Run(time.Minute)
	if !done {
		t.Fatal("flood never found the key")
	}
	if hops <= 0 {
		t.Fatal("hops not counted")
	}
}

func TestLocalHitZeroHops(t *testing.T) {
	sched, _, fn := build(t, 10, 3, 4)
	n := fn.nodes[5]
	fn.Publish(5, "k")
	var hops = -1
	query(n, "k", 5, func(h int, _ time.Duration) { hops = h })
	sched.Run(time.Minute)
	if hops != 0 {
		t.Fatalf("local hit hops = %d", hops)
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	// Publish far from the origin on a pure ring; TTL smaller than the
	// distance must fail.
	sched := simnet.NewScheduler(5)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	fn, err := Build(sched, net, 20, 2) // ring-ish, low degree
	if err != nil {
		t.Fatal(err)
	}
	fn.Publish(10, "far")
	found := false
	query(fn.nodes[0], "far", 1, func(int, time.Duration) { found = true })
	sched.Run(time.Minute)
	if found {
		t.Fatal("TTL=1 flood reached distance > 1")
	}
}

func TestQueryCostGrowsWithN(t *testing.T) {
	// The baseline's point: flooding messages grow ~linearly with n.
	cost := map[int]uint64{}
	for _, n := range []int{20, 200} {
		sched, net, fn := build(t, n, 4, 6)
		fn.Publish(n-1, "needle")
		before := net.Stats().Messages
		query(fn.nodes[0], "needle", n, func(int, time.Duration) {})
		sched.Run(time.Minute)
		cost[n] = net.Stats().Messages - before
	}
	if cost[200] < 5*cost[20] {
		t.Fatalf("flood cost not ~linear: %v", cost)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	sched, net, fn := build(t, 15, 14, 7) // near-complete graph
	fn.Publish(3, "k")
	query(fn.nodes[0], "k", 15, func(int, time.Duration) {})
	sched.Run(time.Minute)
	// With dedup, each node forwards a query at most once: messages are
	// bounded by n*degree + 1 response.
	if msgs := net.Stats().Messages; msgs > 15*14+2 {
		t.Fatalf("dedup failed: %d messages", msgs)
	}
}

// TestMissingKeyNoCallback: a lookup nobody can answer never calls back,
// and its query does not stay open for ever: once the resolver's timeout
// has passed, every member's resolver is idle again.
func TestMissingKeyNoCallback(t *testing.T) {
	sched, _, fn := build(t, 10, 3, 8)
	called := false
	fn.Lookup(0, "absent", func(routing.Result) { called = true })
	sched.Run(time.Minute)
	if called {
		t.Fatal("callback fired for missing key")
	}
	for i, n := range fn.nodes {
		if !n.res.Quiescent() {
			t.Errorf("member %d still holds an open query after a minute", i)
		}
	}
}

// TestLookupJudgedByAnswerer: a lookup is judged at the peer that answered
// first. A forged answer carrying the originator's open query ID that
// reaches it before the holder's, sent by a member without the key or by a
// peer that is no member at all, reads as a failure although a member holds
// the key.
func TestLookupJudgedByAnswerer(t *testing.T) {
	sched := simnet.NewScheduler(9)
	// One latency everywhere: the forged answer (one message) lands before
	// the holder's (a forward and an answer).
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	fn, err := Build(sched, net, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := net.Attach("forger", netmodel.SpreadSites(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	e := sched.NewEnv("forger")
	stranger := resolver.New(e, endpoint.New(e, ids.FromName(ids.KindPeer, "forger"), tr))
	key := "held-by-one-member"
	fn.Publish(9, key)
	origin := fn.nodes[0]
	for i, forger := range []*resolver.Service{nil, fn.nodes[4].res, stranger} {
		var got []routing.Result
		fn.Lookup(0, key, func(r routing.Result) { got = append(got, r) })
		if forger != nil {
			// The originator's lookups are its only queries: IDs 1, 2, 3.
			_ = forger.Respond(&resolver.Query{Handler: handlerName, QID: uint64(i + 1),
				Src: origin.peer, SrcAddr: []byte(origin.ep.Addr()), Hops: 1}, nil)
		}
		sched.Run(sched.Now() + time.Second)
		if len(got) != 1 {
			t.Fatalf("answer %d: callback fired %d times", i, len(got))
		}
		if want := forger == nil; got[0].OK != want {
			t.Errorf("answer %d (0 is the holder's, 1 a member's without the key, 2 a stranger's): OK=%v, want %v", i, got[0].OK, want)
		}
	}
}

// FuzzFloodQuery delivers an arbitrary payload, hop count and query ID to a
// member's handler twice, as its resolver would lend them. Nothing may
// panic; the first step sends nothing, one answer, or one forward to each
// neighbour; the repeat, the same originator and query ID again, sends
// nothing.
func FuzzFloodQuery(f *testing.F) {
	sched, net, fn := build(f, 16, 3, 10)
	callee, caller := fn.nodes[0], fn.nodes[5]
	fn.Publish(0, "held")
	degree := uint64(len(callee.neighbors))
	f.Add([]byte("16 held"), uint16(0), uint64(1))
	f.Add([]byte("16 absent"), uint16(2), uint64(2))
	f.Add([]byte("2 absent"), uint16(2), uint64(3))
	f.Add([]byte("16 absent"), uint16(resolver.MaxHops-1), uint64(4))
	f.Fuzz(func(t *testing.T, payload []byte, hops uint16, qid uint64) {
		for i := 0; i < 2; i++ {
			before := net.Stats().Messages
			callee.handle(&resolver.Query{Handler: handlerName, QID: qid, Src: caller.peer,
				SrcAddr: []byte(caller.ep.Addr()), Hops: int(hops) % resolver.MaxHops, Payload: payload})
			sent := net.Stats().Messages - before
			if i == 0 && sent > 1 && sent != degree {
				t.Fatalf("one step sent %d messages; the node has %d neighbours", sent, degree)
			}
			if i == 1 && sent != 0 {
				t.Fatalf("a repeated query sent %d messages", sent)
			}
		}
		sched.Run(sched.Now() + time.Second)
	})
}
