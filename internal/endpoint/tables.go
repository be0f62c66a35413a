package endpoint

import (
	"jxta/internal/ids"
	"jxta/internal/transport"
)

// The endpoint's tables are small by construction. An edge serves nine
// service names and routes to its rendezvous and little else, for as long as
// it lives; held in maps, those few entries cost a bucket array each (832 B
// per edge; PERFORMANCE_HISTORY.md, "small-by-construction services"). Held
// in exact-size slices they are as small idle as busy, so there is one
// representation and nothing converts to or from it.

// appendExact appends v, growing a full slice by exactly one element instead
// of doubling it: these slices reach their final size while the peer boots
// and keep it, and ten thousand edges would each hold the spare capacity.
func appendExact[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, len(s)+1), s...)
	}
	return append(s, v)
}

// slot is what the endpoint knows about one service name: the handler, when
// the name is served here, and its traffic counts, once the name has been
// counted. Only local code adds slots (Register, and sends to a service this
// peer does not serve), so their number is bounded by the program, never by
// what arrives off the wire.
type slot struct {
	name string
	h    Handler
	n    *svcCounts
}

// counts returns the slot's traffic counts, allocating them on first use.
func (s *slot) counts() *svcCounts {
	if s.n == nil {
		s.n = new(svcCounts)
	}
	return s.n
}

// findSlot scans for a service name, given as the string local code holds or
// as the bytes of an envelope read in place. Neither allocates.
func findSlot[S string | []byte](slots []slot, name S) *slot {
	for i := range slots {
		if slots[i].name == string(name) {
			return &slots[i]
		}
	}
	return nil
}

// slotFor returns the slot of a service named by local code, adding it on
// first use. The pointer is valid until the next slotFor.
func (ep *Endpoint) slotFor(service string) *slot {
	if s := findSlot(ep.slots, service); s != nil {
		return s
	}
	ep.slots = appendExact(ep.slots, slot{name: service})
	return &ep.slots[len(ep.slots)-1]
}

// routesFew is the largest route table kept as a slice. Scanning eight
// entries costs what hashing one ID does; past that the map wins. A map goes
// back to a slice only once it has drained to half that, into a slice of
// routesFew capacity: a rendezvous' table holds the peers outside its view,
// and a sweep moves a wave of departing members into it that their
// re-admission takes out again, so a table that turned back at routesFew
// exactly would build a map and a slice for each ripple of every wave.
const routesFew = 8

type route struct {
	peer ids.ID
	addr transport.Addr
}

// routeTable maps peers to transport addresses: the routes no route source
// gives. It picks its representation from the one thing it can observe, its
// own size: up to routesFew routes (every edge, and a converged rendezvous,
// whose view members route through its peerview) live in a slice, more in a
// map. The map exists for a rendezvous' peers outside its view: its lease
// clients (forty each in the benchmark's edges-10k) and the waves of
// departed members that churn brings. many is non-nil when it
// holds more than routesFew routes, nil when it holds routesFew/2 or fewer,
// and either in between.
type routeTable struct {
	few  []route
	many map[ids.ID]transport.Addr
}

func (t *routeTable) get(peer ids.ID) (transport.Addr, bool) {
	if t.many != nil {
		a, ok := t.many[peer]
		return a, ok
	}
	for i := range t.few {
		if t.few[i].peer == peer {
			return t.few[i].addr, true
		}
	}
	return "", false
}

func (t *routeTable) put(peer ids.ID, addr transport.Addr) {
	if t.many != nil {
		t.many[peer] = addr
		return
	}
	for i := range t.few {
		if t.few[i].peer == peer {
			t.few[i].addr = addr
			return
		}
	}
	if len(t.few) < routesFew {
		t.few = appendExact(t.few, route{peer, addr})
		return
	}
	t.many = make(map[ids.ID]transport.Addr, 2*routesFew)
	for _, r := range t.few {
		t.many[r.peer] = r.addr
	}
	t.many[peer] = addr
	t.few = nil
}

func (t *routeTable) del(peer ids.ID) {
	if t.many != nil {
		delete(t.many, peer)
		if len(t.many) <= routesFew/2 {
			t.few = make([]route, 0, routesFew)
			for p, a := range t.many {
				t.few = append(t.few, route{p, a})
			}
			t.many = nil
		}
		return
	}
	for i := range t.few {
		if t.few[i].peer == peer {
			last := len(t.few) - 1
			t.few[i] = t.few[last]
			t.few[last] = route{}
			t.few = t.few[:last]
			return
		}
	}
}

// each calls f for every route, in unspecified order.
func (t *routeTable) each(f func(ids.ID, transport.Addr)) {
	for _, r := range t.few {
		f(r.peer, r.addr)
	}
	for p, a := range t.many {
		f(p, a)
	}
}
