// Package flood implements the JXTA-1.0-style flooding discovery baseline.
// Before the LC-DHT, JXTA rendezvous peers forwarded every discovery query
// to all rendezvous peers they knew (the strategy [13] in the paper compares
// against): query cost grows with the rendezvous population, which is
// exactly the contrast the LC-DHT's O(1) routing was introduced to fix.
//
// Nodes form a static connected random graph (degree k) over the simulated
// network; a query floods with a TTL and per-query deduplication; the first
// node holding the key answers the originator directly. Network implements
// routing.Backend itself.
package flood

import (
	"fmt"
	"strconv"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/routing"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// Message elements, namespace "flood". A found answer carries its hop count
// in TTL and names no node.
const (
	ns         = "flood"
	elemKey    = "Key"
	elemTTL    = "TTL"
	elemHops   = "Hops"
	elemReqID  = "Req"
	elemOrigin = "Origin"
	elemKind   = "Kind" // "query" | "found"
)

// node is one flooding rendezvous.
type node struct {
	net       *Network
	tr        *transport.Sim
	neighbors []int
	keys      map[string]bool
	seen      map[uint64]bool
}

// Network is a deployed flooding overlay. As a routing.Backend it indexes
// the members in deployment order.
type Network struct {
	nodes []*node
	ops   routing.Ops
}

// Build deploys n nodes in a connected random graph of degree ~k.
func Build(sched *simnet.Scheduler, net *transport.Network, n, k int) (*Network, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("flood: n=%d k=%d", n, k)
	}
	fn := &Network{ops: routing.NewOps(sched)}
	sites := netmodel.SpreadSites(n)
	for i := 0; i < n; i++ {
		tr, err := net.Attach(fmt.Sprintf("flood%d", i), sites[i])
		if err != nil {
			return nil, err
		}
		nd := &node{net: fn, tr: tr,
			keys: make(map[string]bool), seen: make(map[uint64]bool)}
		tr.SetHandler(nd.receive)
		fn.nodes = append(fn.nodes, nd)
	}
	// Ring edge for connectivity plus random chords up to degree k.
	rng := sched.NewEnv("flood-graph").Rand()
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		for _, x := range fn.nodes[a].neighbors {
			if x == b {
				return
			}
		}
		fn.nodes[a].neighbors = append(fn.nodes[a].neighbors, b)
		fn.nodes[b].neighbors = append(fn.nodes[b].neighbors, a)
	}
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for len(fn.nodes[i].neighbors) < k {
			addEdge(i, rng.Intn(n))
		}
	}
	return fn, nil
}

// Publish implements routing.Backend: flooding publishes locally only (its
// O(1) publish / O(n) query trade-off, inverted from the LC-DHT).
func (f *Network) Publish(from int, key string) { f.nodes[from].keys[key] = true }

// Lookup implements routing.Backend. The TTL is the overlay size: the
// bake-off measures full-coverage flooding, not bounded-horizon variants.
func (f *Network) Lookup(from int, key string, cb func(routing.Result)) {
	f.query(f.nodes[from], key, len(f.nodes), func(_ uint64, hops int, elapsed time.Duration) {
		cb(routing.Result{OK: true, Hops: hops, Latency: elapsed})
	})
}

// Maintain implements routing.Backend: the flood graph is static, nothing
// to do.
func (f *Network) Maintain() {}

// query floods a lookup for key from a node. done fires on the first answer
// with the hop distance and latency. TTL bounds the flood radius.
func (f *Network) query(from *node, key string, ttl int, done func(answerer uint64, hops int, elapsed time.Duration)) {
	from.handleQuery(key, f.ops.Open(done), ttl, 0, from.tr.Addr())
}

func (n *node) handleQuery(key string, req uint64, ttl, hops int, origin transport.Addr) {
	if n.seen[req] {
		return
	}
	n.seen[req] = true
	if len(n.seen) > 1<<16 {
		n.seen = make(map[uint64]bool)
	}
	if n.keys[key] {
		if origin == n.tr.Addr() {
			n.net.ops.Close(req, 0, hops)
			return
		}
		rsp := message.Acquire()
		rsp.AddString(ns, elemKind, "found")
		rsp.AddScratch(ns, elemReqID, strconv.AppendUint(rsp.Scratch(), req, 10))
		rsp.AddScratch(ns, elemTTL, strconv.AppendInt(rsp.Scratch(), int64(hops), 10))
		_ = n.tr.Send(origin, &rsp.Message)
		rsp.Release()
		return
	}
	if ttl <= 0 {
		return
	}
	m := message.Acquire()
	m.AddString(ns, elemKind, "query")
	m.AddString(ns, elemKey, key)
	m.AddScratch(ns, elemReqID, strconv.AppendUint(m.Scratch(), req, 10))
	m.AddScratch(ns, elemTTL, strconv.AppendInt(m.Scratch(), int64(ttl-1), 10))
	m.AddString(ns, elemOrigin, string(origin))
	m.AddScratch(ns, elemHops, strconv.AppendInt(m.Scratch(), int64(hops+1), 10))
	for _, nb := range n.neighbors {
		_ = n.tr.Send(n.net.nodes[nb].tr.Addr(), &m.Message)
	}
	m.Release()
}

func (n *node) receive(_ transport.Addr, m *message.Message) {
	req, err := strconv.ParseUint(m.GetString(ns, elemReqID), 10, 64)
	if err != nil {
		return
	}
	switch m.GetString(ns, elemKind) {
	case "found":
		hops, err := strconv.Atoi(m.GetString(ns, elemTTL))
		if err != nil {
			return
		}
		n.net.ops.Close(req, 0, hops)
	case "query":
		ttl, err := strconv.Atoi(m.GetString(ns, elemTTL))
		if err != nil || ttl < 0 {
			return
		}
		hops, err := strconv.Atoi(m.GetString(ns, elemHops))
		if err != nil {
			return
		}
		n.handleQuery(m.GetString(ns, elemKey), req, ttl, hops,
			transport.Addr(m.GetString(ns, elemOrigin)))
	}
}
