package endpoint

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/transport"
)

// TestRouteTableMatchesMap holds the route table to a plain map under random
// put / del / get / clear sequences. The peer population (12) sits just above
// the spill, and puts and dels are equally likely, so the table spills into
// the map and drains back to the slice many times; the test fails if it
// never did. A map turns back into a slice at routesFew/2 routes, not at
// routesFew: between the two either representation holds, because a
// rendezvous' table rises and falls across routesFew in waves, and turning
// back at the spill built a map and a slice for every ripple
// (PERFORMANCE_HISTORY.md, "Where the allocations came from").
func TestRouteTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		peers := make([]ids.ID, 12)
		for i := range peers {
			peers[i] = ids.FromName(ids.KindPeer, fmt.Sprintf("p%d", i))
		}
		var tab routeTable
		ref := map[ids.ID]transport.Addr{}
		spills, returns := 0, 0
		for step := 0; step < 4000; step++ {
			p := peers[rng.Intn(len(peers))]
			wasMap := tab.many != nil
			switch op := rng.Intn(100); {
			case op < 45:
				addr := transport.Addr(fmt.Sprintf("sim://rennes/%d", rng.Intn(1000)))
				tab.put(p, addr)
				ref[p] = addr
			case op < 90:
				tab.del(p)
				delete(ref, p)
			case op < 91:
				tab = routeTable{} // what Endpoint.Reset does
				clear(ref)
			}
			if isMap := tab.many != nil; isMap && !wasMap {
				spills++
			} else if wasMap && !isMap && len(ref) > 0 {
				returns++
			}
			if len(ref) > routesFew && tab.many == nil || len(ref) <= routesFew/2 && tab.many != nil || tab.many != nil && len(tab.few) != 0 {
				t.Fatalf("seed %d step %d: %d routes held as few=%d many=%v", seed, step, len(ref), len(tab.few), tab.many != nil)
			}
			listed := 0
			tab.each(func(q ids.ID, addr transport.Addr) {
				if want, ok := ref[q]; !ok || addr != want {
					t.Fatalf("seed %d step %d: each lists %s at %q, want %q", seed, step, q.Short(), addr, want)
				}
				listed++
			})
			if listed != len(ref) {
				t.Fatalf("seed %d step %d: each lists %d routes of %d", seed, step, listed, len(ref))
			}
			for _, q := range peers {
				got, ok := tab.get(q)
				want, wantOK := ref[q]
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: get(%s) = %q, %v; want %q, %v", seed, step, q.Short(), got, ok, want, wantOK)
				}
			}
		}
		if spills == 0 || returns == 0 {
			t.Fatalf("seed %d: crossed the spill %d times up and %d times down; the test covers nothing", seed, spills, returns)
		}
	}
}

// TestRouteTableHoldsNoSpareCapacity: a table that only grew, as an edge's
// does, is an exact-size slice up to routesFew and holds no map.
func TestRouteTableHoldsNoSpareCapacity(t *testing.T) {
	var tab routeTable
	for i := 1; i <= routesFew; i++ {
		tab.put(ids.FromName(ids.KindPeer, fmt.Sprintf("p%d", i)), "sim://rennes/x")
		if tab.many != nil || len(tab.few) != i || cap(tab.few) != i {
			t.Fatalf("%d routes: many=%v len=%d cap=%d", i, tab.many != nil, len(tab.few), cap(tab.few))
		}
	}
}

// mapFields lists the non-nil map-typed fields of a struct.
func mapFields(v any) (held []string) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Map && !f.IsNil() {
			held = append(held, rv.Type().Field(i).Name)
		}
	}
	return held
}

// TestReturnsToZeroState: a fresh endpoint holds no map and is quiescent; a
// Hello in flight makes it non-quiescent; the answer drains it; registrations
// and routes survive all of it, in slices with no spare capacity.
func TestReturnsToZeroState(t *testing.T) {
	sched, _, a, b, c := setup(t)
	a.ep.Register("svc", func(ids.ID, *message.Message) {})
	a.ep.AddRoute(c.id, c.tr.Addr())
	held := slices.Concat(mapFields(a.ep), mapFields(&a.ep.routes))
	if len(held) != 0 || !a.ep.Quiescent() {
		t.Fatalf("fresh endpoint holds maps %v, quiescent=%v", held, a.ep.Quiescent())
	}
	resolved := false
	a.ep.Hello(b.tr.Addr(), func(_ ids.ID, ok bool) { resolved = ok })
	if a.ep.Quiescent() {
		t.Fatal("a Hello in flight left the endpoint quiescent")
	}
	sched.Run(time.Second)
	if !resolved || !a.ep.Quiescent() {
		t.Fatalf("resolved=%v quiescent=%v after the exchange", resolved, a.ep.Quiescent())
	}
	if s := findSlot(a.ep.slots, "svc"); s == nil || s.h == nil {
		t.Fatal("handler registration did not survive the exchange")
	}
	for _, p := range []*rig{b, c} {
		if addr, ok := a.ep.RouteTo(p.id); !ok || addr != p.tr.Addr() {
			t.Fatalf("route to %s did not survive the exchange: %q, %v", p.id.Short(), addr, ok)
		}
	}
	if len(a.ep.slots) != cap(a.ep.slots) {
		t.Fatalf("service slots hold spare capacity: len %d cap %d", len(a.ep.slots), cap(a.ep.slots))
	}
}

// TestUnregisterAndReinstrument: re-registering a name replaces its handler
// and keeps its counts, and a registry collected afterwards reads them. (The
// name predates the deletion of Endpoint.Unregister and of
// re-instrumentation.)
func TestUnregisterAndReinstrument(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	served := 0
	b.ep.Register("svc", func(ids.ID, *message.Message) { served++ })
	a.ep.AddRoute(b.id, b.tr.Addr())
	send := func() {
		if err := a.ep.Send(b.id, "svc", body("x")); err != nil {
			t.Fatal(err)
		}
		sched.Run(sched.Now() + time.Second)
	}
	send()
	b.ep.Register("svc", func(ids.ID, *message.Message) { served += 10 })
	reg := metrics.NewRegistry()
	b.ep.Collect(reg)
	send()
	if served != 11 || b.ep.Drops != 0 {
		t.Fatalf("served=%d drops=%d after re-registering, want 11 and 0", served, b.ep.Drops)
	}
	if got := reg.Snapshot()[`jxta_endpoint_rx_messages_total{service="svc"}`]; got != 2 {
		t.Fatalf("the registry counted %v messages for svc, want 2", got)
	}
}

// TestEndpointFitsItsSizeClass: every edge holds one Endpoint, so it stays
// inside the 192-byte size class, which it fills: one more field puts every
// edge in the 208-byte class.
func TestEndpointFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Endpoint{}); size > 192 {
		t.Fatalf("Endpoint is %d bytes, over the 192-byte size class", size)
	}
}
