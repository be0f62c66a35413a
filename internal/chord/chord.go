// Package chord implements a classical-DHT baseline (Chord-style ring with
// finger tables and O(log n) greedy routing) over the same simulated
// Grid'5000 network as the JXTA stack. The paper's §3.3 complexity
// discussion contrasts the LC-DHT (O(1) publish / O(r) worst-case lookup)
// with classical DHTs (O(log n) for both); this package provides the
// measurable comparator for that claim. Ring implements routing.Backend
// itself.
//
// The ring is built statically — the paper's point of comparison is routing
// cost, not membership maintenance, and its related work notes that
// classical DHT evaluations "usually assume a static network". It has no
// stabilization and no failure model: the bake-off measures it in steady
// state. Lookups are recursive: each hop forwards to the closest preceding
// finger; the owner answers the originator directly.
package chord

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/routing"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// Message elements, namespace "chord".
const (
	ns         = "chord"
	elemKey    = "Key"
	elemHops   = "Hops"
	elemReqID  = "Req"
	elemOrigin = "Origin" // transport address of the requester
	elemOwner  = "Owner"  // response: owner node ID
	elemKind   = "Kind"   // "lookup" | "store" | "found"
)

// fingerBits is the identifier-space width.
const fingerBits = 64

// node is one ring member.
type node struct {
	ring    *Ring
	id      uint64
	tr      *transport.Sim
	fingers [fingerBits]uint64 // finger[i] = successor(id + 2^i)
	succ    uint64
	store   map[uint64]bool // keys this node owns (stored values)
}

// Ring is a deployed Chord overlay. As a routing.Backend it indexes the
// members by ring position (ID order).
type Ring struct {
	nodes  map[uint64]*node
	sorted []uint64
	ops    routing.Ops
}

// Build deploys n nodes with deterministic pseudo-random IDs on the given
// network, spread over the Grid'5000 sites, and computes finger tables from
// the (static) membership.
func Build(sched *simnet.Scheduler, net *transport.Network, n int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chord: n=%d", n)
	}
	r := &Ring{nodes: make(map[uint64]*node, n), ops: routing.NewOps(sched)}
	rng := sched.NewEnv("chord-ids").Rand()
	sites := netmodel.SpreadSites(n)
	for i := 0; i < n; i++ {
		id := rng.Uint64()
		for _, dup := r.nodes[id]; dup; _, dup = r.nodes[id] {
			id = rng.Uint64()
		}
		tr, err := net.Attach(fmt.Sprintf("chord%d", i), sites[i])
		if err != nil {
			return nil, err
		}
		nd := &node{ring: r, id: id, tr: tr, store: make(map[uint64]bool)}
		tr.SetHandler(nd.receive)
		r.nodes[id] = nd
		r.sorted = append(r.sorted, id)
	}
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	for _, nd := range r.nodes {
		nd.buildFingers()
	}
	return r, nil
}

// Publish implements routing.Backend: a store routed to the key's owner,
// which records it. No answer is awaited.
func (r *Ring) Publish(from int, key string) {
	r.route(r.nodes[r.sorted[from]], routing.KeyHash(key), "store", nil)
}

// Lookup implements routing.Backend. The lookup is judged at the node its
// answer names: an answerer that is not a member, or never recorded the
// key, reports OK=false rather than counting a reachable-but-empty node as
// a hit.
func (r *Ring) Lookup(from int, key string, cb func(routing.Result)) {
	hash := routing.KeyHash(key)
	r.route(r.nodes[r.sorted[from]], hash, "lookup", func(owner uint64, hops int, elapsed time.Duration) {
		n := r.nodes[owner]
		cb(routing.Result{OK: n != nil && n.store[hash], Hops: hops, Latency: elapsed})
	})
}

// Maintain implements routing.Backend: the ring is static by construction
// (the paper's classical-DHT comparisons assume a static network), so there
// is no maintenance protocol to run.
func (r *Ring) Maintain() {}

// successor returns the first node ID clockwise from key (inclusive).
func (r *Ring) successor(key uint64) uint64 {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i] >= key })
	if i == len(r.sorted) {
		return r.sorted[0]
	}
	return r.sorted[i]
}

func (n *node) buildFingers() {
	for i := 0; i < fingerBits; i++ {
		n.fingers[i] = n.ring.successor(n.id + 1<<uint(i))
	}
	n.succ = n.ring.successor(n.id + 1)
}

// inOpen reports whether x lies in the open ring interval (a, b).
func inOpen(a, x, b uint64) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b
}

// closestPrecedingFinger returns the routing next hop for key: the highest
// finger strictly between this node and the key, falling back to the
// immediate successor (which always makes progress on the ring).
func (n *node) closestPrecedingFinger(key uint64) uint64 {
	for i := fingerBits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f != n.id && inOpen(n.id, f, key) {
			return f
		}
	}
	return n.succ
}

// owns reports whether this node is the successor of key.
func (n *node) owns(key uint64) bool {
	return n.ring.successor(key) == n.id
}

// route starts a store or lookup for key at from; done (nil for a store)
// fires when the owner's answer returns to from.
func (r *Ring) route(from *node, key uint64, kind string, done func(owner uint64, hops int, elapsed time.Duration)) {
	from.handle(key, kind, r.ops.Open(done), 0, from.tr.Addr())
}

// handle processes a routing step locally (zero hops) or forwards it.
func (n *node) handle(key uint64, kind string, req uint64, hops int, origin transport.Addr) {
	if n.owns(key) {
		n.terminal(key, kind, req, hops, origin)
		return
	}
	next := n.closestPrecedingFinger(key)
	m := message.Acquire()
	m.AddString(ns, elemKind, kind)
	m.AddScratch(ns, elemKey, strconv.AppendUint(m.Scratch(), key, 10))
	m.AddScratch(ns, elemReqID, strconv.AppendUint(m.Scratch(), req, 10))
	m.AddScratch(ns, elemHops, strconv.AppendInt(m.Scratch(), int64(hops+1), 10))
	m.AddString(ns, elemOrigin, string(origin))
	_ = n.tr.Send(n.ring.nodes[next].tr.Addr(), &m.Message)
	m.Release()
}

// terminal runs at the key's owner: store or answer.
func (n *node) terminal(key uint64, kind string, req uint64, hops int, origin transport.Addr) {
	if kind == "store" {
		n.store[key] = true
	}
	if origin == n.tr.Addr() {
		// Local completion without a network round trip.
		n.ring.ops.Close(req, n.id, hops)
		return
	}
	rsp := message.Acquire()
	rsp.AddString(ns, elemKind, "found")
	rsp.AddScratch(ns, elemReqID, strconv.AppendUint(rsp.Scratch(), req, 10))
	rsp.AddScratch(ns, elemHops, strconv.AppendInt(rsp.Scratch(), int64(hops), 10))
	rsp.AddScratch(ns, elemOwner, strconv.AppendUint(rsp.Scratch(), n.id, 10))
	_ = n.tr.Send(origin, &rsp.Message)
	rsp.Release()
}

// receive handles inbound chord messages at a node.
func (n *node) receive(_ transport.Addr, m *message.Message) {
	kind := m.GetString(ns, elemKind)
	req, err := strconv.ParseUint(m.GetString(ns, elemReqID), 10, 64)
	if err != nil {
		return
	}
	hops, err := strconv.Atoi(m.GetString(ns, elemHops))
	if err != nil || hops < 0 || hops > 4*fingerBits {
		return
	}
	if kind == "found" {
		owner, err := strconv.ParseUint(m.GetString(ns, elemOwner), 10, 64)
		if err != nil {
			return
		}
		n.ring.ops.Close(req, owner, hops)
		return
	}
	key, err := strconv.ParseUint(m.GetString(ns, elemKey), 10, 64)
	if err != nil {
		return
	}
	n.handle(key, kind, req, hops, transport.Addr(m.GetString(ns, elemOrigin)))
}
