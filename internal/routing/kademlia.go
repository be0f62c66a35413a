package routing

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/resolver"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// KadHandlerName is the resolver handler the Kademlia RPCs travel over.
// Running the overlay on the peer resolver, as every backend runs, keeps
// the comparison honest: every Kademlia RPC pays the same endpoint/resolver
// envelope the SRDI walk pays.
const KadHandlerName = "urn:jxta:kad"

const (
	// kadK is the bucket capacity and replication factor.
	kadK = 8
	// kadAlpha is the lookup parallelism.
	kadAlpha = 3
	// kadRPCTimeout is how long a single RPC waits for an answer before the
	// lookup drops its target and routes around it.
	kadRPCTimeout = 10 * time.Second
	// kadRefreshInterval is the per-node bucket-refresh period; each tick
	// one node runs one FIND_NODE toward a rotating region of the space.
	kadRefreshInterval = 2 * time.Minute
)

// kadContact is one routing-table entry.
type kadContact struct {
	key  uint64
	id   ids.ID
	addr transport.Addr
}

// Kademlia is a deployed iterative-lookup XOR-metric overlay: the
// structured comparator of the §3.3 bake-off that maintains its own tables.
// Unlike the static Chord ring (recursive routing), every lookup is driven by
// its originator, so an RPC that gets no answer costs one timeout instead of
// the whole operation, and its target leaves the routing table. The overlay
// has no failure model beyond that: the bake-off measures it in steady
// state.
type Kademlia struct {
	nodes []*kadNode
}

type kadNode struct {
	env env.Env
	tr  *transport.Sim
	ep  *endpoint.Endpoint
	res *resolver.Service
	id  ids.ID
	key uint64

	// buckets[i] holds contacts sharing exactly i leading bits with key
	// (i = BucketIndex), each at most K long, least-recently-seen first.
	buckets [64][]kadContact
	store   map[string]bool
	refresh int // rotating bucket-refresh bit position
}

// BuildKademlia deploys n nodes over the simulated network and seeds each
// routing table with a deterministic bootstrap graph (successor plus
// power-of-two jumps in deployment order). Call Bootstrap and run a settle
// window before measuring; tables then converge through lookup traffic.
func BuildKademlia(sched *simnet.Scheduler, net *transport.Network, n int) (*Kademlia, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kademlia: n=%d", n)
	}
	k := &Kademlia{}
	sites := netmodel.SpreadSites(n)
	for i := 0; i < n; i++ {
		e := sched.NewEnv(fmt.Sprintf("kad%d", i))
		id := ids.NewRandom(ids.KindPeer, e.Rand())
		tr, err := net.Attach(fmt.Sprintf("kad%d", i), sites[i])
		if err != nil {
			return nil, err
		}
		nd := &kadNode{
			env: e, tr: tr, id: id, key: IDHash(id),
			store: make(map[string]bool),
		}
		nd.ep = endpoint.New(e, id, tr)
		nd.res = resolver.New(e, nd.ep)
		nd.res.Timeout = kadRPCTimeout
		nd.res.RegisterHandler(KadHandlerName, nd.handleRPC)
		env.NewTicker(e, kadRefreshInterval, nd.refreshTick)
		k.nodes = append(k.nodes, nd)
	}
	for i, nd := range k.nodes {
		nd.observe(k.contact(k.nodes[(i+1)%n]))
		for jump := 2; jump < n; jump *= 2 {
			nd.observe(k.contact(k.nodes[(i+jump)%n]))
		}
	}
	return k, nil
}

func (k *Kademlia) contact(nd *kadNode) kadContact {
	return kadContact{key: nd.key, id: nd.id, addr: nd.tr.Addr()}
}

// Bootstrap schedules an iterative self-lookup on every node (staggered so
// the joins interleave rather than land on one instant); run a settle
// window afterwards. Self-lookups populate the near buckets that the
// deterministic seed graph cannot.
func (k *Kademlia) Bootstrap() {
	for i, nd := range k.nodes {
		nd := nd
		nd.env.After(time.Duration(i%64)*50*time.Millisecond, func() {
			nd.lookup(nd.key, "", false, nil)
		})
	}
}

// Publish implements Backend: an iterative FIND_NODE toward the key
// followed by STOREs at the K closest contacts found.
func (k *Kademlia) Publish(from int, key string) {
	k.nodes[from].lookup(KeyHash(key), key, true, nil)
}

// Lookup implements Backend: an iterative FIND_VALUE; OK reports whether
// any holder was reached, Hops is the iteration depth at which it was.
func (k *Kademlia) Lookup(from int, key string, cb func(Result)) {
	k.nodes[from].lookup(KeyHash(key), key, false, cb)
}

// Maintain forces one bucket-refresh round on every node (the timed
// equivalent runs on kadRefreshInterval tickers). Of the bake-off's
// backends only Kademlia has an explicit maintenance round: SRDI's is
// timer-driven, and the Chord ring and the flood graph are static.
func (k *Kademlia) Maintain() {
	for _, nd := range k.nodes {
		nd.refreshTick()
	}
}

// refreshTick runs one maintenance lookup toward a rotating single-bit
// flip of this node's key, cycling through all 64 bucket distances (29 is
// coprime with 64, so every bit is visited before any repeats).
func (n *kadNode) refreshTick() {
	bit := uint(n.refresh % 64)
	n.refresh += 29
	n.lookup(n.key^(1<<bit), "", false, nil)
}

// observe folds a contact into the routing table (and the endpoint's route
// table). Buckets evict nothing on sight — a full bucket ignores the
// newcomer, Kademlia's classic stale-resistant policy; an entry leaves
// through dropContact when an RPC to it times out.
func (n *kadNode) observe(c kadContact) {
	if c.key == n.key || c.id.Equal(n.id) {
		return
	}
	n.ep.AddRoute(c.id, c.addr)
	b := BucketIndex(n.key, c.key)
	for i, old := range n.buckets[b] {
		if old.key == c.key {
			// Move to most-recently-seen position.
			n.buckets[b] = append(append(n.buckets[b][:i], n.buckets[b][i+1:]...), c)
			return
		}
	}
	if len(n.buckets[b]) < kadK {
		n.buckets[b] = append(n.buckets[b], c)
	}
}

// dropContact removes a contact that left an RPC unanswered from the
// routing table.
func (n *kadNode) dropContact(key uint64) {
	b := BucketIndex(n.key, key)
	if b >= 64 {
		return // key == n.key: not in any bucket
	}
	for i, c := range n.buckets[b] {
		if c.key == key {
			n.buckets[b] = append(n.buckets[b][:i], n.buckets[b][i+1:]...)
			return
		}
	}
}

// closest returns up to want known contacts by XOR distance to target.
func (n *kadNode) closest(target uint64, want int) []kadContact {
	var all []kadContact
	for b := range n.buckets {
		all = append(all, n.buckets[b]...)
	}
	sortContacts(all, target)
	if len(all) > want {
		all = all[:want]
	}
	return all
}

// sortContacts orders contacts by XOR distance to target (insertion sort:
// slices are small, and avoiding sort.Slice keeps equal-distance ordering
// deterministic without a tiebreak closure).
func sortContacts(cs []kadContact, target uint64) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].key^target < cs[j-1].key^target; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// RPC wire format (resolver payload, text lines):
//
//	query:    "find <targetHex> <key>"  |  "store <key>"
//	response: "1"|"0" (value held here), then one contact per line:
//	          "<keyHex> <peer id> <transport addr>"
//
// The caller's own contact is not embedded: the resolver query already
// carries Src/SrcAddr, and the 64-bit key is a hash of Src, so the callee
// learns the caller for free (and vice versa for responses).

func encodeContacts(found bool, cs []kadContact) []byte {
	var b strings.Builder
	if found {
		b.WriteString("1")
	} else {
		b.WriteString("0")
	}
	for _, c := range cs {
		fmt.Fprintf(&b, "\n%016x %s %s", c.key, c.id, c.addr)
	}
	return []byte(b.String())
}

func decodeContacts(payload []byte) (found bool, cs []kadContact) {
	lines := strings.Split(string(payload), "\n")
	if len(lines) == 0 {
		return false, nil
	}
	found = lines[0] == "1"
	for _, ln := range lines[1:] {
		parts := strings.SplitN(ln, " ", 3)
		if len(parts) != 3 {
			continue
		}
		key, err := strconv.ParseUint(parts[0], 16, 64)
		if err != nil {
			continue
		}
		id, err := ids.Parse(parts[1])
		if err != nil || id.IsNil() {
			continue
		}
		cs = append(cs, kadContact{key: key, id: id, addr: transport.Addr(parts[2])})
	}
	return found, cs
}

// handleRPC serves find/store queries from other overlay members.
func (n *kadNode) handleRPC(q *resolver.Query) {
	// Learn the caller: its 64-bit key is derived from its peer ID. The
	// contact outlives the call, so it keeps a copy of the lent address.
	n.observe(kadContact{key: IDHash(q.Src), id: q.Src, addr: transport.Addr(q.SrcAddr)})
	fields := strings.SplitN(strings.SplitN(string(q.Payload), "\n", 2)[0], " ", 3)
	switch fields[0] {
	case "store":
		if len(fields) >= 2 && fields[1] != "" {
			n.store[fields[1]] = true
		}
		_ = n.res.Respond(q, encodeContacts(true, nil))
	case "find":
		if len(fields) < 2 {
			return
		}
		target, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			return
		}
		key := ""
		if len(fields) == 3 {
			key = fields[2]
		}
		found := key != "" && n.store[key]
		_ = n.res.Respond(q, encodeContacts(found, n.closest(target, kadK)))
	}
}

// kadOp is one iterative lookup in flight at its originator.
type kadOp struct {
	n      *kadNode
	target uint64
	key    string // "" for pure FIND_NODE (refresh, bootstrap)
	store  bool   // publish: STORE at the K closest on convergence
	cb     func(Result)
	start  time.Duration

	shortlist []kadContact    // candidates, XOR-sorted, failures removed
	depth     map[uint64]int  // contact key -> iteration depth discovered at
	queried   map[uint64]bool // RPC issued (includes failures)
	responded map[uint64]bool // RPC answered
	inflight  int
	finished  bool
}

// lookup starts an iterative operation toward target from this node.
func (n *kadNode) lookup(target uint64, key string, store bool, cb func(Result)) {
	op := &kadOp{
		n: n, target: target, key: key, store: store, cb: cb,
		start:     n.env.Now(),
		depth:     make(map[uint64]int),
		queried:   make(map[uint64]bool),
		responded: make(map[uint64]bool),
	}
	for _, c := range n.closest(target, kadK) {
		op.add(c, 1)
	}
	op.step()
}

// add inserts a newly learned contact at the given iteration depth.
func (op *kadOp) add(c kadContact, depth int) {
	if c.key == op.n.key {
		return
	}
	if _, known := op.depth[c.key]; known {
		return
	}
	op.depth[c.key] = depth
	op.shortlist = append(op.shortlist, c)
	sortContacts(op.shortlist, op.target)
}

// step issues RPCs until kadAlpha are in flight or the kadK closest known
// contacts have all been queried; with nothing in flight either, the
// operation has converged.
func (op *kadOp) step() {
	if op.finished {
		return
	}
	for op.inflight < kadAlpha {
		c, ok := op.nextCandidate()
		if !ok {
			break
		}
		op.queried[c.key] = true
		op.inflight++
		op.sendFind(c)
	}
	if op.inflight == 0 {
		op.converged()
	}
}

// nextCandidate returns the closest unqueried contact among the K closest
// known, if any.
func (op *kadOp) nextCandidate() (kadContact, bool) {
	for _, c := range op.shortlist[:min(kadK, len(op.shortlist))] {
		if !op.queried[c.key] {
			return c, true
		}
	}
	return kadContact{}, false
}

func (op *kadOp) sendFind(c kadContact) {
	payload := fmt.Sprintf("find %016x %s", op.target, op.key)
	op.n.ep.AddRoute(c.id, c.addr)
	_, err := op.n.res.SendQuery(c.id, KadHandlerName, []byte(payload),
		func(data []byte, from ids.ID, _ int) { op.onResponse(c, data) },
		func(uint64) { op.onTimeout(c) })
	if err != nil {
		op.onTimeout(c)
	}
}

func (op *kadOp) onResponse(c kadContact, data []byte) {
	if op.responded[c.key] {
		return
	}
	op.responded[c.key] = true
	op.inflight--
	op.n.observe(c)
	found, contacts := decodeContacts(data)
	d := op.depth[c.key]
	for _, nc := range contacts {
		op.n.observe(nc)
		op.add(nc, d+1)
	}
	if found && op.key != "" && !op.store {
		op.finish(Result{OK: true, Hops: d, Latency: op.n.env.Now() - op.start})
		return
	}
	op.step()
}

// onTimeout handles an RPC that got no answer (or could not be sent):
// evict its target everywhere and route around it.
func (op *kadOp) onTimeout(c kadContact) {
	if op.finished || op.responded[c.key] {
		return
	}
	op.responded[c.key] = true
	op.inflight--
	op.n.dropContact(c.key)
	for i, sc := range op.shortlist {
		if sc.key == c.key {
			op.shortlist = append(op.shortlist[:i], op.shortlist[i+1:]...)
			break
		}
	}
	op.step()
}

// converged runs when the K closest known contacts have all answered (or
// timed out): FIND_VALUE failed, FIND_NODE finished, publish stores.
func (op *kadOp) converged() {
	if op.store {
		limit := min(kadK, len(op.shortlist))
		hops := 0
		payload := []byte("store " + op.key)
		for _, c := range op.shortlist[:limit] {
			if op.depth[c.key] > hops {
				hops = op.depth[c.key]
			}
			_, _ = op.n.res.SendQuery(c.id, KadHandlerName, payload,
				func([]byte, ids.ID, int) {}, nil)
		}
		// The originator holds a replica too if it is at least as close
		// as the furthest chosen contact (or nothing else was reachable).
		if limit == 0 || op.n.key^op.target <= op.shortlist[limit-1].key^op.target {
			op.n.store[op.key] = true
		}
		op.finish(Result{OK: limit > 0, Hops: hops, Latency: op.n.env.Now() - op.start})
		return
	}
	ok := op.key != "" && op.n.store[op.key] // local hit: zero-hop success
	hops := 0
	op.finish(Result{OK: ok, Hops: hops, Latency: op.n.env.Now() - op.start})
}

func (op *kadOp) finish(r Result) {
	if op.finished {
		return
	}
	op.finished = true
	if op.cb != nil {
		op.cb(r)
	}
}
