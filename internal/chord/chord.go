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
// state. Lookups are recursive and travel over each member's peer resolver,
// as the other backends' do: the originator queries itself, each hop
// forwards the query to the closest preceding finger, and the owner answers
// the originator directly.
package chord

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/resolver"
	"jxta/internal/routing"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// handlerName is the resolver handler ring traffic travels over. A query's
// payload is "lookup <key>" or "store <key>", the key in decimal; an
// answer's payload is empty: the answering peer is its sender.
const handlerName = "urn:jxta:chord"

// fingerBits is the identifier-space width.
const fingerBits = 64

// node is one ring member.
type node struct {
	ring    *Ring
	id      uint64
	peer    ids.ID
	ep      *endpoint.Endpoint
	res     *resolver.Service
	fingers [fingerBits]*node // finger[i] = successor(id + 2^i); finger[0] is the successor
	store   map[uint64]bool   // keys this node owns (stored values)
}

// Ring is a deployed Chord overlay. As a routing.Backend it indexes the
// members by ring position (ID order).
type Ring struct {
	sched  *simnet.Scheduler
	nodes  []*node // in ID order
	byPeer map[ids.ID]*node
}

// Build deploys n nodes with deterministic pseudo-random IDs on the given
// network, spread over the Grid'5000 sites, and computes finger tables from
// the (static) membership.
func Build(sched *simnet.Scheduler, net *transport.Network, n int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chord: n=%d", n)
	}
	r := &Ring{sched: sched, byPeer: make(map[ids.ID]*node, n)}
	rng := sched.NewEnv("chord-ids").Rand()
	taken := make(map[uint64]bool, n)
	sites := netmodel.SpreadSites(n)
	for i := 0; i < n; i++ {
		id := rng.Uint64()
		for taken[id] {
			id = rng.Uint64()
		}
		taken[id] = true
		name := fmt.Sprintf("chord%d", i)
		tr, err := net.Attach(name, sites[i])
		if err != nil {
			return nil, err
		}
		e := sched.NewEnv(name)
		nd := &node{ring: r, id: id, peer: ids.FromName(ids.KindPeer, name), store: make(map[uint64]bool)}
		nd.ep = endpoint.New(e, nd.peer, tr)
		nd.res = resolver.New(e, nd.ep)
		nd.res.RegisterHandler(handlerName, nd.handle)
		r.nodes = append(r.nodes, nd)
		r.byPeer[nd.peer] = nd
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].id < r.nodes[j].id })
	for _, nd := range r.nodes {
		for i := range nd.fingers {
			f := r.successor(nd.id + 1<<uint(i))
			nd.fingers[i] = f
			nd.ep.AddRoute(f.peer, f.ep.Addr())
		}
	}
	return r, nil
}

// Publish implements routing.Backend: a store routed to the key's owner,
// which records it and acknowledges. No answer is awaited.
func (r *Ring) Publish(from int, key string) {
	r.nodes[from].start("store", routing.KeyHash(key), func([]byte, ids.ID, int) {})
}

// Lookup implements routing.Backend. The lookup is judged at the peer that
// answered: an answerer that is not a member, or never recorded the key,
// reports OK=false rather than counting a reachable-but-empty node as a
// hit. A lookup nobody answers never calls back; its query leaves the
// originator's resolver at the resolver's timeout.
func (r *Ring) Lookup(from int, key string, cb func(routing.Result)) {
	hash := routing.KeyHash(key)
	start := r.sched.Now()
	r.nodes[from].start("lookup", hash, func(_ []byte, answerer ids.ID, hops int) {
		n := r.byPeer[answerer]
		cb(routing.Result{OK: n != nil && n.store[hash], Hops: hops, Latency: r.sched.Now() - start})
	})
}

// successor returns the first node clockwise from key (inclusive).
func (r *Ring) successor(key uint64) *node {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= key })
	if i == len(r.nodes) {
		return r.nodes[0]
	}
	return r.nodes[i]
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
func (n *node) closestPrecedingFinger(key uint64) *node {
	for i := fingerBits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f != n && inOpen(n.id, f.id, key) {
			return f
		}
	}
	return n.fingers[0]
}

// start issues a store or lookup for key: the node queries itself, so its
// own handler takes the first step, and cb hears the owner's answer.
func (n *node) start(op string, key uint64, cb resolver.ResponseCallback) {
	payload := strconv.AppendUint(append([]byte(op), ' '), key, 10)
	// A query to self cannot fail: the resolver listens on the node's own
	// endpoint, which delivers it locally.
	_, _ = n.res.SendQuery(n.peer, handlerName, payload, cb, nil)
}

// handle is one routing step: the key's owner stores or answers, any other
// member forwards to its closest preceding finger. Every finger has a route
// from Build, and Respond learns the originator's from the query, so a send
// fails only as a lost message would: the originator hears nothing.
func (n *node) handle(q *resolver.Query) {
	op, arg, _ := bytes.Cut(q.Payload, []byte(" "))
	key, err := strconv.ParseUint(string(arg), 10, 64)
	if err != nil || (string(op) != "lookup" && string(op) != "store") {
		return
	}
	if n.ring.successor(key) != n {
		_ = n.res.Forward(q, n.closestPrecedingFinger(key).peer)
		return
	}
	if string(op) == "store" {
		n.store[key] = true
	}
	_ = n.res.Respond(q, nil)
}
