package transport

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
)

// plainClamp is the FIFO clamp as it was before it had two representations:
// one map, never pruned. It is the reference fifoClamp is held to.
type plainClamp map[Addr]time.Duration

func (c plainClamp) order(to Addr, arrival time.Duration) time.Duration {
	if last := c[to]; arrival <= last {
		arrival = last + time.Microsecond
	}
	c[to] = arrival
	return arrival
}

// binding counts the destinations whose clamp can still bind at now.
func (c plainClamp) binding(now time.Duration) (n int) {
	for _, last := range c {
		if last >= now {
			n++
		}
	}
	return n
}

// TestFifoClampMatchesPlainMap: for random (destination, now, latency) send
// sequences the clamp returns, for every send, the arrival the plain map
// returns, and while it is a slice it holds no more entries than there are
// destinations that bind at that instant. Sends come in same-instant bursts
// (zero latencies included, so clamps bind) separated by gaps long enough to
// put every entry in the past. With 1 and 8 destinations the slice must
// never spill; with 9 and 300 it must, and with 300 the map's sweep runs.
func TestFifoClampMatchesPlainMap(t *testing.T) {
	for _, dests := range []int{1, 8, 9, 300} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			addrs := make([]Addr, dests)
			for i := range addrs {
				addrs[i] = Addr(fmt.Sprintf("sim://rennes/d%d", i))
			}
			var c fifoClamp
			ref := plainClamp{}
			var now time.Duration // the first burst is at virtual time zero
			pruned := false
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(100); {
				case r < 2:
					now += time.Duration(rng.Intn(3000)) * time.Millisecond
				case r < 30:
					now += time.Duration(rng.Intn(2000)) * time.Microsecond
				}
				to := addrs[rng.Intn(dests)]
				latency := time.Duration(rng.Intn(5)) * time.Duration(rng.Intn(1000)) * time.Microsecond
				held := len(c.many)
				got, want := c.order(to, now, now+latency), ref.order(to, now+latency)
				if got != want {
					t.Fatalf("%d destinations, seed %d, send %d (to %s at %v + %v): arrives %v, plain map says %v",
						dests, seed, step, to, now, latency, got, want)
				}
				if c.many == nil && len(c.few) > ref.binding(now) {
					t.Fatalf("%d destinations, seed %d, send %d: slice holds %d entries, %d destinations bind at %v",
						dests, seed, step, len(c.few), ref.binding(now), now)
				}
				if c.many != nil && len(c.few) != 0 {
					t.Fatalf("%d destinations, seed %d, send %d: spilled and still holds %d slice entries", dests, seed, step, len(c.few))
				}
				pruned = pruned || len(c.many) < held
			}
			if spilled := c.many != nil; spilled != (dests > clampFew) {
				t.Fatalf("%d destinations, seed %d: spilled=%v", dests, seed, spilled)
			}
			if dests >= 2*arrivalPruneLen && !pruned {
				t.Fatalf("%d destinations, seed %d: the map's sweep never ran", dests, seed)
			}
		}
	}
}

// TestIdleSenderHoldsNoMap: attaching allocates no clamp state, and a sender
// with one destination, an edge talking to its rendezvous, holds one slice
// entry however long it lives.
func TestIdleSenderHoldsNoMap(t *testing.T) {
	sched, _, a, b := newSimPair(t, netmodel.Uniform(3*time.Millisecond))
	b.SetHandler(func(Addr, *message.Message) {})
	if a.fifo.many != nil || a.fifo.few != nil {
		t.Fatal("a fresh endpoint holds clamp state")
	}
	for i := 0; i < 100; i++ {
		if err := a.Send(b.Addr(), msgOf("x")); err != nil {
			t.Fatal(err)
		}
		sched.Run(sched.Now() + time.Duration(i)*time.Millisecond)
	}
	if a.fifo.many != nil || len(a.fifo.few) != 1 {
		t.Fatalf("after 100 sends to one peer: map=%v, %d slice entries", a.fifo.many != nil, len(a.fifo.few))
	}
}
