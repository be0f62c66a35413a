package chord

import (
	"math"
	"strconv"
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

func build(t testing.TB, n int, seed int64) (*simnet.Scheduler, *Ring) {
	t.Helper()
	sched := simnet.NewScheduler(seed)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	ring, err := Build(sched, net, n)
	if err != nil {
		t.Fatal(err)
	}
	return sched, ring
}

// lookup routes a lookup for key from n; done hears the answering peer, the
// hop count and the latency.
func lookup(n *node, key uint64, done func(answerer ids.ID, hops int, elapsed time.Duration)) {
	start := n.ring.sched.Now()
	n.start("lookup", key, func(_ []byte, answerer ids.ID, hops int) {
		done(answerer, hops, n.ring.sched.Now()-start)
	})
}

func TestBuildErrors(t *testing.T) {
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	if _, err := Build(sched, net, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestSuccessorGroundTruth(t *testing.T) {
	_, ring := build(t, 16, 1)
	nodes := ring.nodes
	for i, n := range nodes {
		// successor(n.id) is n itself; successor(n.id+1) is the next node.
		if ring.successor(n.id) != n {
			t.Fatal("successor of own ID is not self")
		}
		next := nodes[(i+1)%len(nodes)]
		if ring.successor(n.id+1) != next && n.id+1 != 0 {
			t.Fatal("successor of ID+1 is not the next ring member")
		}
	}
}

func TestLookupFindsCorrectOwner(t *testing.T) {
	sched, ring := build(t, 32, 2)
	nodes := ring.nodes
	rng := sched.DeriveRand(5)
	for i := 0; i < 50; i++ {
		key := rng.Uint64()
		from := nodes[rng.Intn(len(nodes))]
		want := ring.successor(key).peer
		var got ids.ID
		done := false
		lookup(from, key, func(owner ids.ID, hops int, _ time.Duration) {
			got = owner
			done = true
		})
		sched.Run(sched.Now() + time.Second)
		if !done {
			t.Fatalf("lookup %d never completed", i)
		}
		if got != want {
			t.Fatalf("lookup %d answered by %s, want %s", i, got.Short(), want.Short())
		}
	}
}

func TestStoreThenOwnerHasKey(t *testing.T) {
	sched, ring := build(t, 16, 3)
	nodes := ring.nodes
	key := uint64(0xdeadbeefcafef00d)
	done := false
	nodes[0].start("store", key, func([]byte, ids.ID, int) { done = true })
	sched.Run(time.Second)
	if !done {
		t.Fatal("store never completed")
	}
	if !ring.successor(key).store[key] {
		t.Fatal("owner does not hold the stored key")
	}
}

func TestLocalLookupZeroHops(t *testing.T) {
	sched, ring := build(t, 8, 4)
	n := ring.nodes[3]
	var hops int
	done := false
	lookup(n, n.id, func(_ ids.ID, h int, _ time.Duration) {
		hops = h
		done = true
	})
	sched.Run(time.Second)
	if !done || hops != 0 {
		t.Fatalf("self lookup hops=%d done=%v, want 0 hops", hops, done)
	}
}

func TestHopCountLogarithmic(t *testing.T) {
	// The defining property of the baseline: mean hops ~ (1/2) log2 n.
	for _, n := range []int{16, 64, 256} {
		sched, ring := build(t, n, 7)
		nodes := ring.nodes
		rng := sched.DeriveRand(11)
		total, count := 0, 0
		for i := 0; i < 200; i++ {
			key := rng.Uint64()
			from := nodes[rng.Intn(len(nodes))]
			lookup(from, key, func(_ ids.ID, hops int, _ time.Duration) {
				total += hops
				count++
			})
		}
		sched.Run(sched.Now() + time.Minute)
		if count != 200 {
			t.Fatalf("n=%d: only %d lookups completed", n, count)
		}
		mean := float64(total) / float64(count)
		logN := math.Log2(float64(n))
		if mean > 1.5*logN {
			t.Fatalf("n=%d: mean hops %.1f exceeds 1.5*log2(n)=%.1f", n, mean, 1.5*logN)
		}
		if mean < 0.25*logN {
			t.Fatalf("n=%d: mean hops %.1f suspiciously low (< 0.25*log2 n)", n, mean)
		}
	}
}

func TestHopCountGrowsWithN(t *testing.T) {
	means := map[int]float64{}
	for _, n := range []int{8, 512} {
		sched, ring := build(t, n, 13)
		nodes := ring.nodes
		rng := sched.DeriveRand(17)
		total, count := 0, 0
		for i := 0; i < 300; i++ {
			lookup(nodes[rng.Intn(len(nodes))], rng.Uint64(),
				func(_ ids.ID, hops int, _ time.Duration) {
					total += hops
					count++
				})
		}
		sched.Run(sched.Now() + time.Minute)
		means[n] = float64(total) / float64(count)
	}
	if means[512] <= means[8] {
		t.Fatalf("hops do not grow with n: %v", means)
	}
}

func TestLatencyMeasured(t *testing.T) {
	sched, ring := build(t, 64, 19)
	nodes := ring.nodes
	var elapsed time.Duration
	lookup(nodes[0], nodes[30].id, func(_ ids.ID, hops int, d time.Duration) {
		elapsed = d
	})
	sched.Run(time.Minute)
	if elapsed <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestDeterministicRing(t *testing.T) {
	_, r1 := build(t, 20, 99)
	_, r2 := build(t, 20, 99)
	a, b := r1.nodes, r2.nodes
	for i := range a {
		if a[i].id != b[i].id {
			t.Fatal("same seed built different rings")
		}
	}
}

func BenchmarkLookup256(b *testing.B) {
	sched, ring := build(b, 256, 1)
	nodes := ring.nodes
	rng := sched.DeriveRand(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(nodes[rng.Intn(len(nodes))], rng.Uint64(),
			func(ids.ID, int, time.Duration) {})
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
}

// TestLookupJudgedByAnswerer: a lookup is judged at the peer that answered,
// not at the key's owner by ring arithmetic. A forged answer carrying the
// originator's open query ID that reaches it first, sent by a member without
// the key or by a peer that is no member at all, reads as a failure although
// the real owner holds the key.
func TestLookupJudgedByAnswerer(t *testing.T) {
	sched := simnet.NewScheduler(21)
	// One latency everywhere: the forged answer (one message) lands before
	// the real one (a forward and an answer).
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	ring, err := Build(sched, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := net.Attach("forger", netmodel.SpreadSites(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	e := sched.NewEnv("forger")
	stranger := resolver.New(e, endpoint.New(e, ids.FromName(ids.KindPeer, "forger"), tr))
	key := "held-by-its-owner"
	hash := routing.KeyHash(key)
	ring.Publish(0, key)
	sched.Run(sched.Now() + time.Second)
	owner := ring.successor(hash)
	if !owner.store[hash] {
		t.Fatal("owner does not hold the published key")
	}
	// The originator is neither the publisher nor the owner, so its
	// lookups are its only queries: query IDs 1, 2, 3.
	from := 1
	for ring.nodes[from] == owner {
		from++
	}
	origin := ring.nodes[from]
	liar := owner.fingers[0]
	for i, forger := range []*resolver.Service{nil, liar.res, stranger} {
		var got []routing.Result
		ring.Lookup(from, key, func(r routing.Result) { got = append(got, r) })
		if forger != nil {
			_ = forger.Respond(&resolver.Query{Handler: handlerName, QID: uint64(i + 1),
				Src: origin.peer, SrcAddr: []byte(origin.ep.Addr()), Hops: 1}, nil)
		}
		sched.Run(sched.Now() + time.Second)
		if len(got) != 1 {
			t.Fatalf("answer %d: callback fired %d times", i, len(got))
		}
		if want := forger == nil; got[0].OK != want {
			t.Errorf("answer %d (0 is the owner's, 1 a member's without the key, 2 a stranger's): OK=%v, want %v", i, got[0].OK, want)
		}
	}
}

// FuzzChordQuery delivers an arbitrary payload, hop count and query ID to a
// ring member's handler, as its resolver would lend them. Nothing may panic,
// and one routing step sends at most one message: a forward or an answer.
func FuzzChordQuery(f *testing.F) {
	sched := simnet.NewScheduler(23)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	ring, err := Build(sched, net, 16)
	if err != nil {
		f.Fatal(err)
	}
	callee, caller := ring.nodes[0], ring.nodes[5]
	f.Add([]byte("lookup "+strconv.FormatUint(callee.id, 10)), uint16(0), uint64(1))
	f.Add([]byte("store "+strconv.FormatUint(caller.id, 10)), uint16(3), uint64(2))
	f.Add([]byte("lookup 18446744073709551615"), uint16(resolver.MaxHops-1), uint64(3))
	f.Fuzz(func(t *testing.T, payload []byte, hops uint16, qid uint64) {
		before := net.Stats().Messages
		callee.handle(&resolver.Query{Handler: handlerName, QID: qid, Src: caller.peer,
			SrcAddr: []byte(caller.ep.Addr()), Hops: int(hops) % resolver.MaxHops, Payload: payload})
		if sent := net.Stats().Messages - before; sent > 1 {
			t.Fatalf("one step sent %d messages", sent)
		}
		sched.Run(sched.Now() + time.Second)
	})
}
