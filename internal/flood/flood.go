// Package flood implements the JXTA-1.0-style flooding discovery baseline.
// Before the LC-DHT, JXTA rendezvous peers forwarded every discovery query
// to all rendezvous peers they knew (the strategy [13] in the paper compares
// against): query cost grows with the rendezvous population, which is
// exactly the contrast the LC-DHT's O(1) routing was introduced to fix.
//
// Nodes form a static connected random graph (degree k) over the simulated
// network; a query floods with a TTL and per-query deduplication; the first
// node holding the key answers the originator directly.
package flood

import (
	"fmt"
	"strconv"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// Message elements, namespace "flood".
const (
	ns         = "flood"
	elemKey    = "Key"
	elemTTL    = "TTL"
	elemReqID  = "Req"
	elemOrigin = "Origin"
	elemKind   = "Kind" // "query" | "found"
)

// Node is one flooding rendezvous.
type Node struct {
	net       *Network
	Index     int
	tr        *transport.Sim
	neighbors []int
	keys      map[string]bool
	seen      map[uint64]bool
}

// Network is a deployed flooding overlay.
type Network struct {
	eng     simnet.Engine
	nodes   []*Node
	pending map[uint64]*query
	nextReq uint64
}

type query struct {
	cb    func(hops int, elapsed time.Duration)
	start time.Duration
}

// Build deploys n nodes in a connected random graph of degree ~k. Any
// simnet.Engine works (the serial Scheduler satisfies it).
func Build(eng simnet.Engine, net *transport.Network, n, k int) (*Network, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("flood: n=%d k=%d", n, k)
	}
	fn := &Network{eng: eng, pending: make(map[uint64]*query)}
	sites := netmodel.SpreadSites(n)
	for i := 0; i < n; i++ {
		tr, err := net.Attach(fmt.Sprintf("flood%d", i), sites[i])
		if err != nil {
			return nil, err
		}
		node := &Node{net: fn, Index: i, tr: tr,
			keys: make(map[string]bool), seen: make(map[uint64]bool)}
		tr.SetHandler(node.receive)
		fn.nodes = append(fn.nodes, node)
	}
	// Ring edge for connectivity plus random chords up to degree k.
	rng := eng.NewEnv("flood-graph").Rand()
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

// Nodes returns the members in deployment order.
func (f *Network) Nodes() []*Node { return f.nodes }

// Publish records a key at a node (flooding publishes locally only — that
// is its O(1)-publish / O(n)-query trade-off, inverted from the LC-DHT).
func (n *Node) Publish(key string) { n.keys[key] = true }

// Query floods a lookup for key from this node. cb fires on the first
// answer with the hop distance and latency. TTL bounds the flood radius.
func (f *Network) Query(from *Node, key string, ttl int, cb func(hops int, elapsed time.Duration)) {
	f.nextReq++
	req := f.nextReq
	f.pending[req] = &query{cb: cb, start: f.eng.Now()}
	from.handleQuery(key, req, ttl, 0, from.tr.Addr())
}

func (n *Node) handleQuery(key string, req uint64, ttl, hops int, origin transport.Addr) {
	if n.seen[req] {
		return
	}
	n.seen[req] = true
	if len(n.seen) > 1<<16 {
		n.seen = make(map[uint64]bool)
	}
	if n.keys[key] {
		if origin == n.tr.Addr() {
			n.net.complete(req, hops)
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
	m.AddScratch(ns, "Hops", strconv.AppendInt(m.Scratch(), int64(hops+1), 10))
	for _, nb := range n.neighbors {
		_ = n.tr.Send(n.net.nodes[nb].tr.Addr(), &m.Message)
	}
	m.Release()
}

func (f *Network) complete(req uint64, hops int) {
	q, ok := f.pending[req]
	if !ok {
		return
	}
	delete(f.pending, req)
	q.cb(hops, f.eng.Now()-q.start)
}

func (n *Node) receive(_ transport.Addr, m *message.Message) {
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
		n.net.complete(req, hops)
	case "query":
		ttl, err := strconv.Atoi(m.GetString(ns, elemTTL))
		if err != nil || ttl < 0 {
			return
		}
		hops, err := strconv.Atoi(m.GetString(ns, "Hops"))
		if err != nil {
			return
		}
		n.handleQuery(m.GetString(ns, elemKey), req, ttl, hops,
			transport.Addr(m.GetString(ns, elemOrigin)))
	}
}
