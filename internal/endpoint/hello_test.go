package endpoint

import (
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

func TestHelloResolvesPeerID(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	var got ids.ID
	var ok bool
	done := false
	a.ep.Hello(b.tr.Addr(), func(peer ids.ID, o bool) {
		got, ok, done = peer, o, true
	})
	sched.Run(time.Second)
	if !done || !ok || !got.Equal(b.id) {
		t.Fatalf("hello: done=%v ok=%v got=%s want=%s", done, ok, got.Short(), b.id.Short())
	}
	// The route is installed as a side effect.
	if addr, routed := a.ep.RouteTo(b.id); !routed || addr != b.tr.Addr() {
		t.Fatal("hello did not install the route")
	}
}

// requireNoWaiters fails the test unless every Hello has left the endpoint.
func requireNoWaiters(t *testing.T, ep *Endpoint) {
	t.Helper()
	if len(ep.helloWaiters) != 0 || !ep.Quiescent() {
		t.Fatalf("%d Hello waiters left, Quiescent() = %v", len(ep.helloWaiters), ep.Quiescent())
	}
}

// TestHelloTimeoutOnDeadAddress retries from the failure callback, as a
// node that keeps trying its seed would: each timed-out waiter leaves before
// its callback runs, so the retry's waiter is the only one left, and none is
// once the last attempt has failed.
func TestHelloTimeoutOnDeadAddress(t *testing.T) {
	sched, _, a, _, _ := setup(t)
	attempts, failures := 0, 0
	var try func()
	try = func() {
		attempts++
		a.ep.Hello("sim://rennes/ghost", func(_ ids.ID, ok bool) {
			if !ok {
				failures++
			}
			if attempts < 3 {
				try()
			}
		})
	}
	try()
	sched.Run(time.Minute)
	if attempts != 3 || failures != 3 {
		t.Fatalf("hello to dead address: %d attempts, %d failures, want 3 and 3", attempts, failures)
	}
	requireNoWaiters(t, a.ep)
}

func TestHelloSendFailureFailsFast(t *testing.T) {
	sched := simnet.NewScheduler(9)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	a := newRig(t, sched, net, "a", netmodel.Rennes)
	a.tr.Close() // transport gone: send errors synchronously
	var ok bool
	done := false
	a.ep.Hello("sim://rennes/anything", func(_ ids.ID, o bool) { ok, done = o, true })
	sched.Run(time.Second)
	if !done || ok {
		t.Fatalf("closed-transport hello: done=%v ok=%v", done, ok)
	}
	requireNoWaiters(t, a.ep)
}

// TestHelloFromHelloCallback issues a second Hello to the same live peer
// from the first one's callback: the answered waiter has left the list by
// then, and the new one stays in it until its own answer arrives.
func TestHelloFromHelloCallback(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	var got []bool
	a.ep.Hello(b.tr.Addr(), func(_ ids.ID, ok bool) {
		got = append(got, ok)
		a.ep.Hello(b.tr.Addr(), func(peer ids.ID, ok bool) {
			got = append(got, ok && peer.Equal(b.id))
		})
	})
	sched.Run(time.Minute)
	if len(got) != 2 || !got[0] || !got[1] {
		t.Fatalf("callbacks reported %v, want [true true]", got)
	}
	requireNoWaiters(t, a.ep)
}

func TestHelloMultipleWaitersSameAddr(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	results := 0
	for i := 0; i < 3; i++ {
		a.ep.Hello(b.tr.Addr(), func(peer ids.ID, ok bool) {
			if ok && peer.Equal(b.id) {
				results++
			}
		})
	}
	sched.Run(time.Second)
	if results != 3 {
		t.Fatalf("only %d of 3 waiters resolved", results)
	}
}

func TestHelloConcurrentDistinctTargets(t *testing.T) {
	sched, _, a, b, c := setup(t)
	got := map[string]ids.ID{}
	a.ep.Hello(b.tr.Addr(), func(peer ids.ID, ok bool) {
		if ok {
			got["b"] = peer
		}
	})
	a.ep.Hello(c.tr.Addr(), func(peer ids.ID, ok bool) {
		if ok {
			got["c"] = peer
		}
	})
	sched.Run(time.Second)
	if !got["b"].Equal(b.id) || !got["c"].Equal(c.id) {
		t.Fatalf("concurrent hellos mixed up targets: %v", got)
	}
}

func TestNilDestinationDeliveredLocally(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	var from ids.ID
	b.ep.Register("svc", func(src ids.ID, _ *message.Message) { from = src })
	// Send with a nil destination straight to b's address.
	if err := a.ep.sendTo(b.tr.Addr(), ids.Nil, "svc", body("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if !from.Equal(a.id) {
		t.Fatal("nil-destination message not delivered locally")
	}
}
