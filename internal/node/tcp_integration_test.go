package node_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/discovery"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/transport"
)

// livePeer bundles a real-TCP peer for integration tests.
type livePeer struct {
	n  *node.Node
	e  *env.Real
	tr *transport.TCP
}

func newLivePeer(t *testing.T, name string, role node.Role, seeds []peerview.Seed, rngSeed int64) *livePeer {
	t.Helper()
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	e := env.NewReal(name, rngSeed)
	var n *node.Node
	e.Locked(func() {
		n = node.New(e, tr, node.Config{
			Name:      name,
			Role:      role,
			Seeds:     seeds,
			Discovery: discovery.DefaultConfig(),
		})
		n.Start()
	})
	t.Cleanup(func() { stopLive(t, e, n) })
	return &livePeer{n: n, e: e, tr: tr}
}

// stopLive stops n under its env's lock, where the node must already own no
// timer: Stop cancels every one its services armed.
func stopLive(t *testing.T, e *env.Real, n *node.Node) {
	e.Locked(func() {
		n.Stop()
		if p := e.Pending(); p != 0 {
			t.Errorf("%s owns %d pending timers after Stop", e.Name(), p)
		}
	})
}

// noGoroutineLeft is called first in a live test, before anything listens:
// its cleanup runs last, after every node has stopped and every transport
// has closed, and holds the test to the goroutine count it started with —
// accept loops, handshakes and read loops all gone within a second.
func noGoroutineLeft(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines, %d before the test listened:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func (p *livePeer) connected() bool {
	ok := false
	p.e.Locked(func() { _, ok = p.n.Rendezvous.ConnectedRdv() })
	return ok
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFullStackOverTCP runs the complete protocol stack — lease, SRDI push,
// LC-DHT replica, resolver, direct response — over real localhost sockets.
func TestFullStackOverTCP(t *testing.T) {
	noGoroutineLeft(t)
	rdv := newLivePeer(t, "rdv", node.Rendezvous, nil, 1)
	seed := peerview.Seed{ID: rdv.n.ID, Addr: rdv.tr.Addr()}
	pub := newLivePeer(t, "pub", node.Edge, []peerview.Seed{seed}, 2)
	search := newLivePeer(t, "search", node.Edge, []peerview.Seed{seed}, 3)

	waitFor(t, "leases", 10*time.Second, func() bool {
		return pub.connected() && search.connected()
	})

	pub.e.Locked(func() {
		pub.n.Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, "tcp-test"),
			Name:  "tcp-test",
		}, 0)
	})

	found := make(chan discovery.Result, 1)
	// The SRDI push needs a moment on the wire before the query.
	time.Sleep(200 * time.Millisecond)
	search.e.Locked(func() {
		search.n.Discovery.Query("Resource", "Name", "tcp-test",
			func(r discovery.Result) {
				select {
				case found <- r:
				default:
				}
			}, nil)
	})
	select {
	case r := <-found:
		if len(r.Advs) != 1 || !r.From.Equal(pub.n.ID) {
			t.Fatalf("wrong result: %d advs from %s", len(r.Advs), r.From.Short())
		}
		if r.Elapsed <= 0 {
			t.Fatal("no latency measured")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("discovery over TCP never completed")
	}
}

// TestAnsweredLookupsLeaveNothingPendingOverTCP is the live half of the
// resolver's completion rule: 1,000 closed-loop lookups over loopback TCP,
// each issued only after the previous one was answered. The resolver's
// pending table is read under the searcher's env lock before every lookup and
// after the last: an answered query must already be gone, or a live peer
// keeps every lookup it ever made, its closures and its timer.
func TestAnsweredLookupsLeaveNothingPendingOverTCP(t *testing.T) {
	noGoroutineLeft(t)
	rdv := newLivePeer(t, "rdv-loop", node.Rendezvous, nil, 11)
	seed := peerview.Seed{ID: rdv.n.ID, Addr: rdv.tr.Addr()}
	pub := newLivePeer(t, "pub-loop", node.Edge, []peerview.Seed{seed}, 12)
	search := newLivePeer(t, "search-loop", node.Edge, []peerview.Seed{seed}, 13)
	waitFor(t, "leases", 10*time.Second, func() bool {
		return pub.connected() && search.connected()
	})
	const resources, lookups = 10, 1000
	pub.e.Locked(func() {
		for k := 0; k < resources; k++ {
			name := fmt.Sprintf("loop-%d", k)
			pub.n.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
		}
	})
	waitFor(t, "the SRDI push", 10*time.Second, func() (indexed bool) {
		rdv.e.Locked(func() { indexed = rdv.n.Discovery.Index().Size() >= resources })
		return indexed
	})
	answers := make(chan bool, 1)
	answer := func(ok bool) {
		select {
		case answers <- ok:
		default: // a second answer to one query must not block the reader
		}
	}
	idle := func() (quiescent bool) {
		search.e.Locked(func() { quiescent = search.n.Resolver.Quiescent() })
		return quiescent
	}
	for i := 0; i < lookups; i++ {
		if !idle() {
			t.Fatalf("the searcher still holds a query when it issues lookup %d", i)
		}
		var err error
		search.e.Locked(func() {
			search.n.Discovery.FlushCache()
			err = search.n.Discovery.Query("Resource", "Name", fmt.Sprintf("loop-%d", i%resources),
				func(discovery.Result) { answer(true) }, func() { answer(false) })
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ok := <-answers:
			if !ok {
				t.Fatalf("lookup %d timed out", i)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("lookup %d never completed", i)
		}
	}
	if !idle() {
		t.Fatal("the searcher holds a query after its last lookup was answered")
	}
}

// TestHelloBootstrapOverTCP exercises the live join path used by
// cmd/jxta-node: learn the seed's ID from its address, then lease.
func TestHelloBootstrapOverTCP(t *testing.T) {
	noGoroutineLeft(t)
	rdv := newLivePeer(t, "rdv2", node.Rendezvous, nil, 4)
	joiner := newLivePeer(t, "joiner", node.Edge, nil, 5)

	resolved := make(chan ids.ID, 1)
	joiner.e.Locked(func() {
		joiner.n.Endpoint.Hello(rdv.tr.Addr(), func(peer ids.ID, ok bool) {
			if ok {
				resolved <- peer
			} else {
				resolved <- ids.Nil
			}
		})
	})
	var seedID ids.ID
	select {
	case seedID = <-resolved:
	case <-time.After(10 * time.Second):
		t.Fatal("hello never resolved")
	}
	if !seedID.Equal(rdv.n.ID) {
		t.Fatalf("hello resolved %s, want %s", seedID.Short(), rdv.n.ID.Short())
	}
	joiner.e.Locked(func() {
		joiner.n.AddSeed(peerview.Seed{ID: seedID, Addr: rdv.tr.Addr()})
	})
	waitFor(t, "post-hello lease", 10*time.Second, joiner.connected)
}

// TestLeaseSurvivesOverTCP checks wall-clock renewal on the live stack with
// a short lease.
func TestLeaseSurvivesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock renewal test")
	}
	noGoroutineLeft(t)
	rdv := newLivePeer(t, "rdv3", node.Rendezvous, nil, 6)
	seed := peerview.Seed{ID: rdv.n.ID, Addr: rdv.tr.Addr()}

	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	e := env.NewReal("shortlease", 7)
	var n *node.Node
	e.Locked(func() {
		n = node.New(e, tr, node.Config{
			Name: "shortlease", Role: node.Edge,
			Seeds: []peerview.Seed{seed},
			Lease: leaseConfig(400*time.Millisecond, 150*time.Millisecond),
		})
		n.Start()
	})
	t.Cleanup(func() { stopLive(t, e, n) })

	waitFor(t, "initial lease", 5*time.Second, func() bool {
		ok := false
		e.Locked(func() { _, ok = n.Rendezvous.ConnectedRdv() })
		return ok
	})
	// Survive several renewal cycles.
	time.Sleep(1500 * time.Millisecond)
	stillClient := false
	rdv.e.Locked(func() { stillClient = rdv.n.Rendezvous.HasClient(n.ID) })
	if !stillClient {
		t.Fatal("lease lapsed despite renewals on the live stack")
	}
}

func leaseConfig(duration, timeout time.Duration) rendezvous.Config {
	return rendezvous.Config{LeaseDuration: duration, ResponseTimeout: timeout}
}

// TestLookupAllocsOverTCP is TestLookupAllocs on the live path: three nodes
// over loopback TCP — a rendezvous, a publisher and a searcher — and a
// closed-loop lookup whose searcher flushes its cache first, so each travels
// searcher -> rendezvous -> publisher and back over two connections. Once
// warmed, a lookup allocates nothing on its path: the TCP transport reads
// and writes frames in buffers of its own, every message is pooled, every
// record recycled, and the list of advertisements is lent to the callback.
//
// The count is every malloc the process made over 256 lookups, background
// work included, so it is held to a ceiling, not to 0. What it finds is not
// per lookup: the publisher's delivery dedup set (discovery's seen) grows as
// it fills, 2 objects in this window, and a goroutine that blocks on a
// contended env lock can make the runtime allocate a wait record (a sudog).
// 20 runs read 2 to 18 objects. The ceiling, a quarter object per lookup,
// holds those and fails on any object made per lookup, which costs 256.
func TestLookupAllocsOverTCP(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	noGoroutineLeft(t)
	rdv := newLivePeer(t, "rdv-allocs", node.Rendezvous, nil, 21)
	seed := peerview.Seed{ID: rdv.n.ID, Addr: rdv.tr.Addr()}
	pub := newLivePeer(t, "pub-allocs", node.Edge, []peerview.Seed{seed}, 22)
	search := newLivePeer(t, "search-allocs", node.Edge, []peerview.Seed{seed}, 23)
	waitFor(t, "leases", 10*time.Second, func() bool {
		return pub.connected() && search.connected()
	})
	const resources, warm, lookups = 8, 256, 256
	names := make([]string, resources)
	pub.e.Locked(func() {
		for k := range names {
			names[k] = fmt.Sprintf("allocs-%d", k)
			pub.n.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, names[k]), Name: names[k]}, 0)
		}
	})
	waitFor(t, "the SRDI push", 10*time.Second, func() (indexed bool) {
		rdv.e.Locked(func() { indexed = rdv.n.Discovery.Index().Size() >= resources })
		return indexed
	})

	// Everything the loop runs is made here, once.
	answers := make(chan bool, 1)
	onAnswer := func(r discovery.Result) {
		select {
		case answers <- len(r.Advs) == 1:
		default: // a second answer to one query must not block the reader
		}
	}
	onTimeout := func() {
		select {
		case answers <- false:
		default:
		}
	}
	var i int
	var err error
	issue := func() {
		search.n.Discovery.FlushCache()
		err = search.n.Discovery.Query("Resource", "Name", names[i%resources], onAnswer, onTimeout)
	}
	deadline := time.NewTimer(time.Hour)
	defer deadline.Stop()
	lookup := func() {
		search.e.Locked(issue)
		if err != nil {
			t.Fatal(err)
		}
		deadline.Reset(15 * time.Second)
		select {
		case ok := <-answers:
			if !ok {
				t.Fatalf("lookup %d timed out or found the wrong advertisements", i)
			}
		case <-deadline.C:
			t.Fatalf("lookup %d never completed", i)
		}
		i++
	}
	for range warm {
		lookup()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for range lookups {
		lookup()
	}
	runtime.ReadMemStats(&ms)
	if got := ms.Mallocs - before; got > lookups/4 {
		t.Errorf("%d lookups over TCP cost %d objects (%.3f each), over the ceiling of %d", lookups, got, float64(got)/lookups, lookups/4)
	}
}
