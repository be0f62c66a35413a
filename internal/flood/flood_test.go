package flood

import (
	"testing"
	"time"

	"jxta/internal/netmodel"
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
	fn.query(nodes[0], "PeerNameTest", 30, func(_ uint64, h int, d time.Duration) {
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
	fn.query(n, "k", 5, func(_ uint64, h int, _ time.Duration) { hops = h })
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
	fn.query(fn.nodes[0], "far", 1, func(uint64, int, time.Duration) { found = true })
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
		fn.query(fn.nodes[0], "needle", n, func(uint64, int, time.Duration) {})
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
	fn.query(fn.nodes[0], "k", 15, func(uint64, int, time.Duration) {})
	sched.Run(time.Minute)
	// With dedup, each node forwards a query at most once: messages are
	// bounded by n*degree + 1 response.
	if msgs := net.Stats().Messages; msgs > 15*14+2 {
		t.Fatalf("dedup failed: %d messages", msgs)
	}
}

func TestMissingKeyNoCallback(t *testing.T) {
	sched, _, fn := build(t, 10, 3, 8)
	called := false
	fn.query(fn.nodes[0], "absent", 10, func(uint64, int, time.Duration) { called = true })
	sched.Run(time.Minute)
	if called {
		t.Fatal("callback fired for missing key")
	}
}
