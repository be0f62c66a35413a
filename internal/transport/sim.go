package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
)

// Stats aggregates network-wide traffic counters. Experiments read it to
// verify the paper's message-complexity claims (LC-DHT publish ≤ 2 messages,
// consistent lookup ≤ 4).
type Stats struct {
	Messages uint64
	Bytes    uint64
	Dropped  uint64 // loss injection + sends to closed peers
}

// shardStats is one shard's slice of the traffic counters. The cells are
// atomic so a driver-side Stats() snapshot taken while shard windows run
// (live metrics scrapes, mid-run observability) is race-free; each cell is
// still written by exactly one shard goroutine, so the atomic adds stay
// uncontended and cache-local.
type shardStats struct {
	messages atomic.Uint64
	bytes    atomic.Uint64
	dropped  atomic.Uint64
}

// Network is the simulated Grid'5000 fabric: it owns the latency model, the
// attached endpoints and the delivery bookkeeping. Its state is partitioned
// by shard: in serial mode there is exactly one shard and all methods run on
// the simulation goroutine; under the sharded engine each shard's slice of
// the state (endpoints, RNG stream, counters, delivery pool) is touched only
// by that shard's execution context, so concurrent windows share nothing.
type Network struct {
	model *netmodel.Model
	// engine is the sharded engine when the fabric spans shards; nil in
	// serial mode.
	engine *simnet.ShardedScheduler
	shards []netShard
	// shardOfSite routes an address to the shard owning its site. Addresses
	// embed their site (sim://<site>/<name>), so routing is static: a
	// destination resolves to the same shard whether or not it is attached
	// yet, which keeps boot races and restarts deterministic.
	shardOfSite [netmodel.NumSites]int32
	// OnSend, when non-nil, observes every accepted send. Used by
	// experiments to count per-exchange messages. Under the sharded engine
	// it is invoked from shard goroutines; observer experiments run serial.
	// msg is the sender's and is reused once Send returns: an observer that
	// keeps it clones it.
	OnSend func(from, to Addr, msg *message.Message)
}

// netShard is one shard's slice of the fabric state.
type netShard struct {
	sched *simnet.Scheduler
	rng   *rand.Rand
	nodes map[Addr]*Sim
	stats shardStats
	// siteCache memoizes parsed sites of destination addresses not attached
	// to this shard (remote shards' peers, not-yet-attached boot races).
	// Shard-local so lookups never touch another shard's maps.
	siteCache map[Addr]netmodel.Site
	// freeDeliveries pools delivery records, at most maxFreeDeliveries of them;
	// together with the scheduler's payload event form it makes the
	// per-message send path closure- and allocation-free. Records may migrate
	// pools (taken on the sending shard, returned on the receiving one); each
	// pool is only touched by its own shard.
	freeDeliveries []*delivery
	// arriveFn/handoffFn are the two delivery phases as stored func values,
	// created once so scheduling them allocates nothing per send.
	arriveFn  func(any)
	handoffFn func(any)
	// pad keeps neighbouring shards' hot counters off one cache line.
	_ [64]byte
}

// delivery is one in-flight message's state, pooled across sends: the copy
// Send made, lent to the receiver's handler at handoff and taken back.
type delivery struct {
	message.Loan
	from Addr
	to   Addr
	rcv  *Sim // resolved at arrival, checked again at handoff
}

// maxFreeDeliveries bounds each shard's free list of delivery records.
// Measured, not settable: peerview ticks are synchronised, so the growth
// phase of a 200-rendezvous overlay has thousands of 3.5 KB referrals in
// flight at once, and a list sized to that peak holds them for the rest of
// the run. On the repository benchmark (seed 42; allocs per event · heap
// bytes per peer on peerview-r200 and on edges-10k, then
// TestQuiescentEdgeHeapCeiling run alone, whose ceiling is 5,900 B) 64
// records read 1.000 · 89,057, 1.185 · 5,893 and 5,248 B; 128 read
// 0.930 · 89,761, 1.104 · 5,896 and 5,485–5,494 B; 256 read 0.776 · 91,829,
// 1.084 · 5,923 and 5,895–5,906 B, over the ceiling; 1,024 read
// 0.541 · 105,791 and 1.050 · 6,368 (+17.8 % and +6.9 % of heap, past the
// benchmark's 5 % bound); an unbounded list 168,293 B per peer.
const maxFreeDeliveries = 128

// reserved DeriveRand index for the network's own jitter/loss stream, far
// above any node index.
const networkRandIndex = 1 << 40

// NewNetwork builds a serial fabric over the given scheduler and latency
// model: one shard owning every site.
func NewNetwork(sched *simnet.Scheduler, model *netmodel.Model) *Network {
	n := &Network{model: model, shards: make([]netShard, 1)}
	n.initShard(0, sched)
	return n
}

// NewShardedNetwork builds a fabric partitioned across the engine's shards
// per the site assignment (assign[site] = shard, from topology.PlaceSites).
// Same-shard deliveries go straight onto the shard's heap exactly as in
// serial mode; cross-shard deliveries are enqueued on the engine's exchange
// queues and merged at window barriers.
func NewShardedNetwork(engine *simnet.ShardedScheduler, model *netmodel.Model, assign []int) (*Network, error) {
	if len(assign) < netmodel.NumSites {
		return nil, fmt.Errorf("transport: site assignment covers %d of %d sites", len(assign), netmodel.NumSites)
	}
	n := &Network{model: model, engine: engine, shards: make([]netShard, engine.Shards())}
	for site := 0; site < netmodel.NumSites; site++ {
		if assign[site] < 0 || assign[site] >= engine.Shards() {
			return nil, fmt.Errorf("transport: site %v assigned to shard %d of %d", netmodel.Site(site), assign[site], engine.Shards())
		}
		n.shardOfSite[site] = int32(assign[site])
	}
	for i := range n.shards {
		n.initShard(i, engine.Shard(i))
	}
	return n, nil
}

// initShard wires one shard's scheduler, RNG stream and delivery closures.
func (n *Network) initShard(i int, sched *simnet.Scheduler) {
	sh := &n.shards[i]
	sh.sched = sched
	sh.rng = sched.DeriveRand(networkRandIndex)
	sh.nodes = make(map[Addr]*Sim)
	sh.siteCache = make(map[Addr]netmodel.Site)
	sh.arriveFn = func(a any) { n.arrive(sh, a) }
	sh.handoffFn = func(a any) { n.handoff(sh, a) }
}

// getDelivery takes a record from the shard's pool (or allocates).
func (sh *netShard) getDelivery() *delivery {
	if k := len(sh.freeDeliveries); k > 0 {
		d := sh.freeDeliveries[k-1]
		sh.freeDeliveries[k-1] = nil
		sh.freeDeliveries = sh.freeDeliveries[:k-1]
		return d
	}
	return &delivery{}
}

// putDelivery ends the record's loan and returns it to the shard's pool,
// unless the pool is full or the record outgrew it.
func (sh *netShard) putDelivery(d *delivery) {
	d.from, d.to, d.rcv = "", "", nil
	if d.End(loanCheck) && len(sh.freeDeliveries) < maxFreeDeliveries {
		sh.freeDeliveries = append(sh.freeDeliveries, d)
	}
}

// Stats returns a snapshot of the traffic counters summed over shards. The
// counters are atomic, so unlike the other driver-side methods it is safe to
// call concurrently with a sharded Run — a snapshot taken mid-window is a
// consistent sum of per-shard values, each no staler than its shard's
// in-flight window.
func (n *Network) Stats() Stats {
	var t Stats
	for i := range n.shards {
		sh := &n.shards[i]
		t.Messages += sh.stats.messages.Load()
		t.Bytes += sh.stats.bytes.Load()
		t.Dropped += sh.stats.dropped.Load()
	}
	return t
}

// shardFor routes an address to the shard owning its site.
func (n *Network) shardFor(addr Addr) *netShard {
	if len(n.shards) == 1 {
		return &n.shards[0]
	}
	return &n.shards[n.shardOfSite[parseAddrSite(addr)]]
}

// Lookup returns the endpoint bound to addr, if attached.
func (n *Network) Lookup(addr Addr) (*Sim, bool) {
	s, ok := n.shardFor(addr).nodes[addr]
	return s, ok
}

// Reattach re-registers a previously closed endpoint under its
// original address, modeling a restarted process on the same host: the
// address answers again. Receivers are resolved at arrival time, so a
// message whose delivery lands inside the down window is lost, while one
// still in flight when the endpoint comes back is delivered — a late frame
// reaching a restarted process, as on a real network. It reports false
// when the address is already held by a different endpoint.
func (n *Network) Reattach(s *Sim) bool {
	if cur, ok := s.sh.nodes[s.addr]; ok && cur != s {
		return false
	}
	s.closed = false
	s.sh.nodes[s.addr] = s
	return true
}

// Model returns the latency model. Loss-injection tests raise its LossRate
// on a built overlay.
func (n *Network) Model() *netmodel.Model { return n.model }

// Sim is a simulated endpoint attached to a Network.
type Sim struct {
	net *Network
	// sh is the shard owning this endpoint's site; all of the endpoint's
	// events (deliveries, handler calls) run on its scheduler.
	sh        *netShard
	shard     int32
	addr      Addr
	site      netmodel.Site
	handler   Handler
	busyUntil time.Duration
	closed    bool
	// fifo enforces per-destination FIFO ordering: JXTA transports are
	// connection-oriented (TCP), so two messages from one peer to another
	// never reorder, whatever the jitter draws say.
	fifo fifoClamp
}

var _ Transport = (*Sim)(nil)

// Attach creates an endpoint for a node at the given site. The name must be
// unique within the network. The endpoint lives on the shard owning the
// site. Driver-side: call while the engine is quiesced.
func (n *Network) Attach(name string, site netmodel.Site) (*Sim, error) {
	addr := Addr(fmt.Sprintf("sim://%s/%s", site, name))
	shard := int32(0)
	if len(n.shards) > 1 {
		shard = n.shardOfSite[site]
	}
	sh := &n.shards[shard]
	if _, dup := sh.nodes[addr]; dup {
		return nil, fmt.Errorf("transport: duplicate sim endpoint %s", addr)
	}
	s := &Sim{net: n, sh: sh, shard: shard, addr: addr, site: site}
	sh.nodes[addr] = s
	return s, nil
}

// Addr implements Transport.
func (s *Sim) Addr() Addr { return s.addr }

// SetHandler implements Transport.
func (s *Sim) SetHandler(h Handler) { s.handler = h }

// Close implements Transport. It detaches the endpoint: in-flight messages
// to it are silently dropped, modeling a crashed peer (churn experiments).
func (s *Sim) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	delete(s.sh.nodes, s.addr)
	return nil
}

// Busy extends the endpoint's service queue by d, modeling local processing
// (e.g. a rendezvous scanning its SRDI index before answering a query).
// Subsequent inbound messages are handed to the handler only after the busy
// period elapses.
func (s *Sim) Busy(d time.Duration) {
	now := s.sh.sched.Now()
	if s.busyUntil < now {
		s.busyUntil = now
	}
	s.busyUntil += d
}

// Send implements Transport. Latency is propagation (site matrix + jitter)
// plus transmission; on arrival the message queues FIFO behind the
// receiver's stack service time, so a loaded receiver serves slowly — the
// effect the paper's configuration B stresses. A delivery whose destination
// site lives on another shard is enqueued on the engine's exchange queues
// instead of the local heap; the conservative lookahead window guarantees
// its arrival lands beyond the current window barrier.
func (s *Sim) Send(to Addr, msg *message.Message) error {
	if s.closed {
		return ErrClosed
	}
	n := s.net
	sh := s.sh
	sh.stats.messages.Add(1)
	sh.stats.bytes.Add(uint64(msg.Size()))
	if n.OnSend != nil {
		n.OnSend(s.addr, to, msg)
	}
	if n.model.Drop(sh.rng) {
		sh.stats.dropped.Add(1)
		return nil // loss is silent, like UDP on a real WAN
	}
	// The destination may be unknown at send time (boot races) or gone
	// (churn); bytes leave anyway and the receiver is resolved at arrival.
	dstSite := sh.siteOf(to)
	latency := n.model.SampleLatency(s.site, dstSite, msg.Size(), sh.rng)
	// Clamp to per-pair FIFO order (connection-oriented transport).
	now := sh.sched.Now()
	arrival := s.fifo.order(to, now, now+latency)
	dstShard := s.shard
	if len(n.shards) > 1 {
		dstShard = n.shardOfSite[dstSite]
	}
	// The record comes from the sending shard's pool (the only pool this
	// execution context may touch) and is returned to the receiving
	// shard's, migrating pools on cross-shard sends.
	d := sh.getDelivery()
	d.from, d.to = s.addr, to
	d.Fill(msg) // the copy contract: msg is the sender's again once Send returns
	if dstShard == s.shard {
		sh.sched.AtCall(arrival, sh.arriveFn, d)
	} else {
		// arriveFn fields are written once at init and read-only after,
		// so reading the destination shard's closure here is safe.
		n.engine.XSchedule(int(s.shard), int(dstShard), arrival, n.shards[dstShard].arriveFn, d)
	}
	return nil
}

// arrive is delivery phase 1 on the receiving shard: the frame reaches the
// destination host and queues FIFO behind the receiver's protocol-stack
// service time.
func (n *Network) arrive(sh *netShard, a any) {
	d := a.(*delivery)
	rcv, ok := sh.nodes[d.to]
	if !ok || rcv.handler == nil {
		sh.stats.dropped.Add(1)
		sh.putDelivery(d)
		return
	}
	arrival := sh.sched.Now()
	start := rcv.busyUntil
	if start < arrival {
		start = arrival
	}
	handAt := start + n.model.StackService
	rcv.busyUntil = handAt
	d.rcv = rcv
	sh.sched.AtCall(handAt, sh.handoffFn, d)
}

// handoff is delivery phase 2: the stack hands the message to the service
// handler — unless the peer crashed while the message sat in its queue.
func (n *Network) handoff(sh *netShard, a any) {
	d := a.(*delivery)
	if cur, ok := sh.nodes[d.to]; ok && cur == d.rcv && d.rcv.handler != nil {
		d.rcv.handler(d.from, &d.Message)
	} else {
		sh.stats.dropped.Add(1)
	}
	sh.putDelivery(d)
}

// siteOf resolves the destination site from this shard's attached endpoints
// or by parsing the sim:// address, memoizing the parse. Endpoints on other
// shards resolve through the parse path — addresses embed their site, so
// the answer is identical and no cross-shard map is read.
func (sh *netShard) siteOf(a Addr) netmodel.Site {
	if node, ok := sh.nodes[a]; ok {
		return node.site
	}
	if site, ok := sh.siteCache[a]; ok {
		return site
	}
	site := parseAddrSite(a)
	sh.siteCache[a] = site
	return site
}

// parseAddrSite extracts the site from a sim://<site>/<name> address.
func parseAddrSite(a Addr) netmodel.Site {
	s := string(a)
	const prefix = "sim://"
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		rest := s[len(prefix):]
		for i := 0; i < len(rest); i++ {
			if rest[i] == '/' {
				if site, err := netmodel.ParseSite(rest[:i]); err == nil {
					return site
				}
				break
			}
		}
	}
	return netmodel.Rennes // arbitrary but deterministic fallback
}
