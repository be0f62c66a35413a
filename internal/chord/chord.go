// Package chord implements a classical-DHT baseline (Chord-style ring with
// finger tables and O(log n) greedy routing) over the same simulated
// Grid'5000 network as the JXTA stack. The paper's §3.3 complexity
// discussion contrasts the LC-DHT (O(1) publish / O(r) worst-case lookup)
// with classical DHTs (O(log n) for both); this package provides the
// measurable comparator for that claim.
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

// Node is one ring member.
type Node struct {
	ring    *Ring
	ID      uint64
	tr      *transport.Sim
	fingers [fingerBits]uint64 // finger[i] = successor(ID + 2^i)
	succ    uint64
	store   map[uint64]bool // keys this node owns (stored values)
}

// Ring is a deployed Chord overlay.
type Ring struct {
	eng     simnet.Engine
	net     *transport.Network
	nodes   map[uint64]*Node
	sorted  []uint64
	pending map[uint64]*lookup
	nextReq uint64
}

type lookup struct {
	cb    func(owner uint64, hops int, elapsed time.Duration)
	start time.Duration
}

// Build deploys n nodes with deterministic pseudo-random IDs on the given
// engine/network, spread over the Grid'5000 sites, and computes finger
// tables from the (static) membership. Any simnet.Engine works (the serial
// Scheduler satisfies it), so the ring deploys on sharded engines too.
func Build(eng simnet.Engine, net *transport.Network, n int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chord: n=%d", n)
	}
	r := &Ring{
		eng:     eng,
		net:     net,
		nodes:   make(map[uint64]*Node, n),
		pending: make(map[uint64]*lookup),
	}
	rng := eng.NewEnv("chord-ids").Rand()
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
		node := &Node{ring: r, ID: id, tr: tr, store: make(map[uint64]bool)}
		tr.SetHandler(node.receive)
		r.nodes[id] = node
		r.sorted = append(r.sorted, id)
	}
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	for _, node := range r.nodes {
		node.buildFingers()
	}
	return r, nil
}

// Nodes returns the ring members in ID order.
func (r *Ring) Nodes() []*Node {
	out := make([]*Node, len(r.sorted))
	for i, id := range r.sorted {
		out[i] = r.nodes[id]
	}
	return out
}

// successor returns the first node ID clockwise from key (inclusive).
func (r *Ring) successor(key uint64) uint64 {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i] >= key })
	if i == len(r.sorted) {
		return r.sorted[0]
	}
	return r.sorted[i]
}

// Owner returns the node responsible for a key (ground truth for tests).
func (r *Ring) Owner(key uint64) *Node { return r.nodes[r.successor(key)] }

func (n *Node) buildFingers() {
	for i := 0; i < fingerBits; i++ {
		n.fingers[i] = n.ring.successor(n.ID + 1<<uint(i))
	}
	n.succ = n.ring.successor(n.ID + 1)
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
func (n *Node) closestPrecedingFinger(key uint64) uint64 {
	for i := fingerBits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f != n.ID && inOpen(n.ID, f, key) {
			return f
		}
	}
	return n.succ
}

// owns reports whether this node is the successor of key.
func (n *Node) owns(key uint64) bool {
	return n.ring.successor(key) == n.ID
}

// Store routes a store request for key from this node; the owner records
// the key. cb (optional) observes hop count and latency.
func (r *Ring) Store(from *Node, key uint64, cb func(owner uint64, hops int, elapsed time.Duration)) {
	r.route(from, key, "store", cb)
}

// Lookup routes a lookup for key from the given node; cb fires when the
// owner's response returns to the requester.
func (r *Ring) Lookup(from *Node, key uint64, cb func(owner uint64, hops int, elapsed time.Duration)) {
	r.route(from, key, "lookup", cb)
}

func (r *Ring) route(from *Node, key uint64, kind string, cb func(uint64, int, time.Duration)) {
	r.nextReq++
	req := r.nextReq
	if cb != nil {
		r.pending[req] = &lookup{cb: cb, start: r.eng.Now()}
	}
	from.handle(key, kind, req, 0, from.tr.Addr())
}

// handle processes a routing step locally (zero hops) or forwards it.
func (n *Node) handle(key uint64, kind string, req uint64, hops int, origin transport.Addr) {
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
func (n *Node) terminal(key uint64, kind string, req uint64, hops int, origin transport.Addr) {
	if kind == "store" {
		n.store[key] = true
	}
	if origin == n.tr.Addr() {
		// Local completion without a network round trip.
		n.ring.complete(req, n.ID, hops)
		return
	}
	rsp := message.Acquire()
	rsp.AddString(ns, elemKind, "found")
	rsp.AddScratch(ns, elemReqID, strconv.AppendUint(rsp.Scratch(), req, 10))
	rsp.AddScratch(ns, elemHops, strconv.AppendInt(rsp.Scratch(), int64(hops), 10))
	rsp.AddScratch(ns, elemOwner, strconv.AppendUint(rsp.Scratch(), n.ID, 10))
	_ = n.tr.Send(origin, &rsp.Message)
	rsp.Release()
}

func (r *Ring) complete(req, owner uint64, hops int) {
	l, ok := r.pending[req]
	if !ok {
		return
	}
	delete(r.pending, req)
	l.cb(owner, hops, r.eng.Now()-l.start)
}

// receive handles inbound chord messages at a node.
func (n *Node) receive(_ transport.Addr, m *message.Message) {
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
		n.ring.complete(req, owner, hops)
		return
	}
	key, err := strconv.ParseUint(m.GetString(ns, elemKey), 10, 64)
	if err != nil {
		return
	}
	n.handle(key, kind, req, hops, transport.Addr(m.GetString(ns, elemOrigin)))
}

// Stored reports whether the node recorded the key (test hook).
func (n *Node) Stored(key uint64) bool { return n.store[key] }
