// Package flood implements the JXTA-1.0-style flooding discovery baseline.
// Before the LC-DHT, JXTA rendezvous peers forwarded every discovery query
// to all rendezvous peers they knew (the strategy [13] in the paper compares
// against): query cost grows with the rendezvous population, which is
// exactly the contrast the LC-DHT's O(1) routing was introduced to fix.
//
// Nodes form a static connected random graph (degree k) over the simulated
// network; a query floods over each member's peer resolver, as the other
// backends' queries travel, with a TTL and deduplication on the query's
// originator and ID; every node holding the key answers the originator
// directly. Network implements routing.Backend itself.
package flood

import (
	"bytes"
	"fmt"
	"strconv"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/resolver"
	"jxta/internal/routing"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// handlerName is the resolver handler floods travel over. A query's payload
// is "<ttl> <key>"; an answer's payload is empty: the answering peer is its
// sender.
const handlerName = "urn:jxta:flood"

// maxSeen bounds a node's duplicate-suppression set; a full set is cleared.
const maxSeen = 1 << 16

// queryKey names one flood: its originator and the originator's query ID.
type queryKey struct {
	src ids.ID
	qid uint64
}

// node is one flooding rendezvous.
type node struct {
	net       *Network
	peer      ids.ID
	ep        *endpoint.Endpoint
	res       *resolver.Service
	neighbors []int
	keys      map[string]bool
	seen      map[queryKey]bool
}

// Network is a deployed flooding overlay. As a routing.Backend it indexes
// the members in deployment order.
type Network struct {
	sched  *simnet.Scheduler
	nodes  []*node
	byPeer map[ids.ID]*node
}

// Build deploys n nodes in a connected random graph of degree ~k.
func Build(sched *simnet.Scheduler, net *transport.Network, n, k int) (*Network, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("flood: n=%d k=%d", n, k)
	}
	rng := sched.NewEnv("flood-graph").Rand()
	fn := &Network{sched: sched, byPeer: make(map[ids.ID]*node, n)}
	sites := netmodel.SpreadSites(n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("flood%d", i)
		tr, err := net.Attach(name, sites[i])
		if err != nil {
			return nil, err
		}
		e := sched.NewEnv(name)
		nd := &node{net: fn, peer: ids.FromName(ids.KindPeer, name),
			keys: make(map[string]bool), seen: make(map[queryKey]bool)}
		nd.ep = endpoint.New(e, nd.peer, tr)
		nd.res = resolver.New(e, nd.ep)
		nd.res.RegisterHandler(handlerName, nd.handle)
		fn.nodes = append(fn.nodes, nd)
		fn.byPeer[nd.peer] = nd
	}
	// Ring edge for connectivity plus random chords up to degree k.
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		na, nb := fn.nodes[a], fn.nodes[b]
		for _, x := range na.neighbors {
			if x == b {
				return
			}
		}
		na.neighbors = append(na.neighbors, b)
		nb.neighbors = append(nb.neighbors, a)
		na.ep.AddRoute(nb.peer, nb.ep.Addr())
		nb.ep.AddRoute(na.peer, na.ep.Addr())
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
// The lookup is judged at the peer that answered first: an answer from a
// stranger, or from a member that does not hold the key, reports OK=false.
// A lookup nobody answers never calls back; its query leaves the
// originator's resolver at the resolver's timeout.
func (f *Network) Lookup(from int, key string, cb func(routing.Result)) {
	start := f.sched.Now()
	f.nodes[from].query(key, len(f.nodes), func(_ []byte, answerer ids.ID, hops int) {
		n := f.byPeer[answerer]
		cb(routing.Result{OK: n != nil && n.keys[key], Hops: hops, Latency: f.sched.Now() - start})
	})
}

// query floods a lookup for key from the node with the given TTL, the
// flood's radius in hops: the node queries itself, so its own handler takes
// the first step, and cb hears the first answer.
func (n *node) query(key string, ttl int, cb resolver.ResponseCallback) {
	payload := append(strconv.AppendInt(nil, int64(ttl), 10), ' ')
	// A query to self cannot fail: the resolver listens on the node's own
	// endpoint, which delivers it locally.
	_, _ = n.res.SendQuery(n.peer, handlerName, append(payload, key...), cb, nil)
}

// handle is one flood step: a node seeing the query for the first time
// answers if it holds the key and otherwise forwards it to every neighbour
// while the query has hops left. Every neighbour has a route from Build, and
// Respond learns the originator's from the query, so a send fails only as a
// lost message would: the originator hears nothing from this node.
func (n *node) handle(q *resolver.Query) {
	ttl, key, _ := bytes.Cut(q.Payload, []byte(" "))
	radius, err := strconv.Atoi(string(ttl))
	if err != nil {
		return
	}
	id := queryKey{q.Src, q.QID}
	if n.seen[id] {
		return
	}
	if len(n.seen) >= maxSeen {
		clear(n.seen)
	}
	n.seen[id] = true
	if n.keys[string(key)] {
		_ = n.res.Respond(q, nil)
		return
	}
	if q.Hops >= radius {
		return
	}
	for _, nb := range n.neighbors {
		_ = n.res.Forward(q, n.net.nodes[nb].peer)
	}
}
