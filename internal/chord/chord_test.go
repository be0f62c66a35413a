package chord

import (
	"math"
	"strconv"
	"testing"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
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

// members returns the ring members in ID order.
func (r *Ring) members() []*node {
	out := make([]*node, len(r.sorted))
	for i, id := range r.sorted {
		out[i] = r.nodes[id]
	}
	return out
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
	nodes := ring.members()
	for i, n := range nodes {
		// successor(n.id) is n itself; successor(n.id+1) is the next node.
		if ring.successor(n.id) != n.id {
			t.Fatal("successor of own ID is not self")
		}
		next := nodes[(i+1)%len(nodes)]
		if ring.successor(n.id+1) != next.id && n.id+1 != 0 {
			t.Fatal("successor of ID+1 is not the next ring member")
		}
	}
}

func TestLookupFindsCorrectOwner(t *testing.T) {
	sched, ring := build(t, 32, 2)
	nodes := ring.members()
	rng := sched.DeriveRand(5)
	for i := 0; i < 50; i++ {
		key := rng.Uint64()
		from := nodes[rng.Intn(len(nodes))]
		want := ring.successor(key)
		var got uint64
		done := false
		ring.route(from, key, "lookup", func(owner uint64, hops int, _ time.Duration) {
			got = owner
			done = true
		})
		sched.Run(sched.Now() + time.Second)
		if !done {
			t.Fatalf("lookup %d never completed", i)
		}
		if got != want {
			t.Fatalf("lookup %d found %x, want %x", i, got, want)
		}
	}
}

func TestStoreThenOwnerHasKey(t *testing.T) {
	sched, ring := build(t, 16, 3)
	nodes := ring.members()
	key := uint64(0xdeadbeefcafef00d)
	done := false
	ring.route(nodes[0], key, "store", func(owner uint64, _ int, _ time.Duration) { done = true })
	sched.Run(time.Second)
	if !done {
		t.Fatal("store never completed")
	}
	if !ring.nodes[ring.successor(key)].store[key] {
		t.Fatal("owner does not hold the stored key")
	}
}

func TestLocalLookupZeroHops(t *testing.T) {
	sched, ring := build(t, 8, 4)
	n := ring.members()[3]
	var hops int
	done := false
	ring.route(n, n.id, "lookup", func(_ uint64, h int, _ time.Duration) {
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
		nodes := ring.members()
		rng := sched.DeriveRand(11)
		total, count := 0, 0
		for i := 0; i < 200; i++ {
			key := rng.Uint64()
			from := nodes[rng.Intn(len(nodes))]
			ring.route(from, key, "lookup", func(_ uint64, hops int, _ time.Duration) {
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
		nodes := ring.members()
		rng := sched.DeriveRand(17)
		total, count := 0, 0
		for i := 0; i < 300; i++ {
			ring.route(nodes[rng.Intn(len(nodes))], rng.Uint64(), "lookup",
				func(_ uint64, hops int, _ time.Duration) {
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
	nodes := ring.members()
	var elapsed time.Duration
	ring.route(nodes[0], nodes[30].id, "lookup", func(_ uint64, hops int, d time.Duration) {
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
	a, b := r1.members(), r2.members()
	for i := range a {
		if a[i].id != b[i].id {
			t.Fatal("same seed built different rings")
		}
	}
}

func BenchmarkLookup256(b *testing.B) {
	sched, ring := build(b, 256, 1)
	nodes := ring.members()
	rng := sched.DeriveRand(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.route(nodes[rng.Intn(len(nodes))], rng.Uint64(), "lookup",
			func(uint64, int, time.Duration) {})
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
}

// TestLookupJudgedByAnswerer: a lookup reads the store of the node its
// found answer names, not the key's owner by ring arithmetic. A forged answer
// that reaches the originator first, naming a member without the key or no
// member at all, reads as a failure although the real owner holds the key.
func TestLookupJudgedByAnswerer(t *testing.T) {
	sched := simnet.NewScheduler(21)
	// One latency everywhere: the forged answer (one message) lands before
	// the real one (a forward and an answer).
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	ring, err := Build(sched, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	forger, err := net.Attach("forger", netmodel.SpreadSites(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	key := "held-by-its-owner"
	hash := routing.KeyHash(key)
	ring.Publish(0, key)
	sched.Run(sched.Now() + time.Second)
	owner := ring.successor(hash)
	if !ring.nodes[owner].store[hash] {
		t.Fatal("owner does not hold the published key")
	}
	from := 0
	if ring.sorted[from] == owner {
		from = 1
	}
	liar := ring.successor(owner + 1)
	stranger := owner ^ 1
	if ring.nodes[stranger] != nil {
		t.Fatal("stranger ID is a member")
	}
	for i, named := range []uint64{owner, liar, stranger} {
		req := uint64(i + 2) // Ops numbers requests 1, 2, 3, …; the publish took 1
		var got []routing.Result
		ring.Lookup(from, key, func(r routing.Result) { got = append(got, r) })
		if named != owner {
			m := message.Acquire()
			m.AddString(ns, elemKind, "found")
			m.AddScratch(ns, elemReqID, strconv.AppendUint(m.Scratch(), req, 10))
			m.AddString(ns, elemHops, "1")
			m.AddScratch(ns, elemOwner, strconv.AppendUint(m.Scratch(), named, 10))
			_ = forger.Send(ring.nodes[ring.sorted[from]].tr.Addr(), &m.Message)
			m.Release()
		}
		sched.Run(sched.Now() + time.Second)
		if len(got) != 1 {
			t.Fatalf("answer naming %x: callback fired %d times", named, len(got))
		}
		if want := named == owner; got[0].OK != want {
			t.Errorf("answer naming %x (owner %x): OK=%v, want %v", named, owner, got[0].OK, want)
		}
	}
}
