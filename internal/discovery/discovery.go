// Package discovery implements the JXTA peer discovery protocol and the
// Loosely-Consistent DHT (LC-DHT, §3.3 of the paper) it relies on.
//
// Publishing: an edge peer stores its advertisement locally, then pushes the
// advertisement's attribute table — tuples (Type+Attr+Value, publisher,
// lifetime) — to its rendezvous (SRDI push). The rendezvous keeps a copy
// and replicates each tuple to the replica peer computed by hashing the
// tuple over its local peerview: 2 messages total, the paper's O(1) publish.
//
// Discovery: a query travels edge → rendezvous (resolver protocol); the
// rendezvous answers from its own SRDI if it can, otherwise forwards to the
// computed replica peer; on a miss there (peerviews inconsistent, churn) the
// query walks the ID-ordered peerview in both directions — the O(r)
// fallback. Whoever finds a matching tuple forwards the query to the
// publishing peer, which sends the advertisement directly back to the
// requester: 4 messages end-to-end when property (2) holds.
//
// On the wire the protocol's records (query, index tuple, response) are XML
// documents, but the service builds and reads them without a document tree:
// writers append, and readers read the strict form the writers emit and
// nothing else — see codec.go for the rule.
package discovery

import (
	"errors"
	"slices"
	"strconv"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/cm"
	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
	"jxta/internal/srdi"
)

// HandlerName is the resolver handler the discovery protocol registers.
const HandlerName = "urn:jxta:disco"

// SRDIService is the endpoint service receiving index pushes.
const SRDIService = "disco.srdi"

// Query lifecycle stages, carried in the query payload so each rendezvous
// knows its role in the pipeline.
const (
	stageInitial = "initial" // from the requesting peer to its rendezvous
	stageReplica = "replica" // forwarded to the computed replica peer
	stageDeliver = "deliver" // forwarded to the publishing peer

	// Range-query stages (the paper's §5 complex-query extension): ranges
	// cannot be hashed onto a replica, so they walk the whole peerview.
	stageRange        = "range"
	stageRangeDeliver = "range-deliver"
)

// Config tunes the discovery service.
type Config struct {
	// ScanCost is the simulated processing time a rendezvous spends per
	// SRDI registration when serving one query — JXTA-C scans its index
	// linearly, which is what makes heavily loaded rendezvous slow in the
	// paper's configuration B. Zero disables cost modeling (unit tests).
	ScanCost time.Duration
	// DisableWalk turns the O(r) fallback walk off (ablation experiments
	// only): replica misses then go unanswered.
	DisableWalk bool
}

// DefaultConfig returns paper-faithful defaults. ScanCost is calibrated so
// that configuration B's ~1000-entry rendezvous adds the paper's ≈18 ms.
func DefaultConfig() Config {
	return Config{ScanCost: 4 * time.Microsecond}
}

const (
	// pushInterval is the SRDI delta-push period (paper: 30 s); rendezvous
	// run their index GC on the same period.
	pushInterval = 30 * time.Second
	// advLifetime is the default lifetime of published advertisements and
	// their index tuples.
	advLifetime = advertisement.DefaultExpiration
)

// BusySink lets the service model local processing cost on its transport
// (implemented by transport.Sim; nil for real transports, where processing
// cost is real: without a sink ScanCost is neither charged nor waited for).
type BusySink interface {
	Busy(d time.Duration)
}

// Result delivers the outcome of a discovery query.
type Result struct {
	Advs    []advertisement.Advertisement
	From    ids.ID
	Elapsed time.Duration
	// Hops counts resolver forwards the query took before it was answered
	// (0: local cache hit or answered by the first-hop rendezvous), echoed
	// back by the resolver response. The routing bake-off reads it to
	// compare LC-DHT hop counts against the structured baselines.
	Hops int
}

// Stats counts discovery-protocol activity on this peer.
type Stats struct {
	QueriesSent      uint64
	QueriesHandled   uint64
	LocalHits        uint64 // answered from the rendezvous' own SRDI
	ReplicaForwards  uint64
	WalksStarted     uint64
	WalkHits         uint64
	Delivered        uint64 // queries answered by this peer as publisher
	TuplesReplicated uint64
}

// Errors.
var ErrNotConnected = errors.New("discovery: edge has no rendezvous lease")

// Service is one peer's discovery service.
type Service struct {
	env   env.Env
	ep    *endpoint.Endpoint
	res   *resolver.Service
	rdv   *rendezvous.Service
	cache *cm.Cache
	cfg   Config
	busy  BusySink

	index *srdi.Index // rendezvous role only
	// unpushed is the delta-push ledger, kept as a debt: the local
	// advertisements whose tuples have not reached the current rendezvous.
	// A push that goes through clears it, so in the steady state it is nil
	// and the push tick returns without looking at the cache. It and seen
	// are nil until first written (reads of a nil map are already correct).
	unpushed map[ids.ID]struct{}
	ticker   *env.Ticker

	// hop is nil until the first query: an idle edge pays one pointer for it.
	hop *hopState

	// seen dedups deliveries at a publisher (deliver). A rendezvous routes
	// each query once and keeps no such set (routeQuery).
	seen map[seenKey]bool

	Stats Stats

	// latency is the remote-query round-trip histogram, nil until the first
	// response arrives.
	latency *metrics.Histogram
}

// New assembles the discovery service over the peer's resolver, rendezvous
// service and cache. busy may be nil.
func New(e env.Env, ep *endpoint.Endpoint, res *resolver.Service, rdvSvc *rendezvous.Service, cache *cm.Cache, cfg Config, busy BusySink) *Service {
	s := &Service{
		env:   e,
		ep:    ep,
		res:   res,
		rdv:   rdvSvc,
		cache: cache,
		cfg:   cfg,
		busy:  busy,
	}
	res.RegisterHandler(HandlerName, s.handleQuery)
	// The SRDI push service and the walk handler are registered in both
	// roles — their handlers gate on the index existing — so a peer that is
	// promoted to rendezvous at runtime serves immediately.
	ep.Register(SRDIService, s.receiveSRDI)
	rdvSvc.SetWalkHandler(HandlerName, s.handleWalk)
	// A gracefully stopping rendezvous hands its SRDI off to the successor
	// as one standard (non-replica) push: the successor indexes every tuple
	// and re-replicates it over its own peerview.
	rdvSvc.SetHandoffHook(s.handOff)
	if rdvSvc.IsRendezvous() {
		s.index = srdi.New(e)
	} else {
		// Re-push the whole index table when the edge (re)connects — the
		// paper notes edges publish their tuples whenever they connect to
		// a new rendezvous (§3.3).
		rdvSvc.AddLeaseListener(func(_ ids.ID, connected bool) {
			if connected {
				s.pushAll(true)
			}
		})
	}
	return s
}

// Promote completes a node-level edge→rendezvous role switch: the service
// gains a fresh SRDI index, its periodic work flips from delta pushing to
// index GC, and the peer's own advertisements are republished into the new
// index (and replicated over the new peerview). Call after the rendezvous
// service switched roles.
func (s *Service) Promote() {
	if s.index != nil || !s.rdv.IsRendezvous() {
		return
	}
	s.index = srdi.New(s.env)
	if s.ticker != nil {
		// Swap the edge push ticker for the rendezvous GC ticker.
		s.ticker.Stop()
		s.ticker = nil
		s.Start()
	}
	s.pushAll(true)
}

// Rereplicate re-runs replica placement for every fresh tuple in the local
// SRDI over the *current* peerview. The node calls it after an island
// merge changed the view: the replica function now maps keys onto merged
// members, so advertisements indexed on one island become discoverable
// through the O(1) replica path from the other. Pushes are batched one
// message per replica peer, in ascending tuple order, so the traffic is
// deterministic under a fixed seed. Tuples already marked replicated stay
// replicated at the receiver (no cascade).
func (s *Service) Rereplicate() {
	if !s.started() || s.index == nil || !s.rdv.IsRendezvous() {
		return
	}
	pv := s.rdv.PeerView()
	batches := make(map[ids.ID][]srdi.Tuple)
	var order []ids.ID // first-seen over sorted tuples: deterministic
	for _, tpl := range s.index.Tuples() {
		replica := replicaOf(pv, tpl.Key)
		if replica.Equal(s.ep.ID()) {
			continue
		}
		if _, ok := batches[replica]; !ok {
			order = append(order, replica)
		}
		batches[replica] = append(batches[replica], tpl)
	}
	for _, dst := range order {
		s.sendTuples(dst, batches[dst], true)
	}
}

// handOff pushes the SRDI to a graceful handoff's successor. Only a
// rendezvous hands off, and a rendezvous always holds an index.
func (s *Service) handOff(succ ids.ID) {
	if tuples := s.index.Tuples(); len(tuples) > 0 {
		s.sendTuples(succ, tuples, false)
	}
}

// Index exposes the SRDI (nil on edges); experiments read its size.
func (s *Service) Index() *srdi.Index { return s.index }

// Start begins periodic SRDI pushing (edges) or index GC (rendezvous); in
// both roles the same tick evicts expired advertisements from the cache.
func (s *Service) Start() {
	if s.ticker != nil {
		return
	}
	if s.rdv.IsRendezvous() {
		s.ticker = env.NewTicker(s.env, pushInterval, func() { s.index.GC(); s.cache.GC() })
		return
	}
	s.ticker = env.NewTicker(s.env, pushInterval, func() { s.cache.GC(); s.pushAll(false) })
}

// hopState is what handling queries reuses, made on the first one: parked
// queries, free records, scratch for a query and for a response encoded to be
// sent at once, and the free lookup records.
type hopState struct {
	parked, free      []*parkedQuery
	payload, response []byte
	lookups           []*lookup
}

// lookup is a remote query this peer issued, until the resolver is done with
// it: a recycled record whose two callbacks are bound once, so issuing one
// allocates nothing. It is freed when the resolver calls it for the last
// time: the first answer of a query that completes on it, or the time-out.
// A collecting query that heard an answer is never told its deadline passed,
// so its record is left to the collector.
type lookup struct {
	s         *Service
	start     time.Duration
	cb        func(Result)
	onTimeout func()
	collect   bool
	answered  resolver.ResponseCallback // answer, bound once
	expired   resolver.TimeoutCallback  // expire, bound once
}

// newLookup takes a lookup record from the free list, or makes one.
func (h *hopState) newLookup(s *Service) *lookup {
	if n := len(h.lookups); n > 0 {
		l := h.lookups[n-1]
		h.lookups = h.lookups[:n-1]
		return l
	}
	l := &lookup{s: s}
	l.answered, l.expired = l.answer, l.expire
	return l
}

// release clears a lookup record, dropping what its callbacks capture, and
// frees it.
func (h *hopState) release(l *lookup) {
	*l = lookup{s: l.s, answered: l.answered, expired: l.expired}
	h.lookups = append(h.lookups, l)
}

// answer files a response's advertisements in the cache and hands them to
// the caller, with the round trip's latency.
func (l *lookup) answer(data []byte, from ids.ID, hops int) {
	s, cb := l.s, l.cb
	elapsed := s.env.Now() - l.start
	if !l.collect {
		s.hop.release(l) // before cb, which may issue the next lookup
	}
	advs := s.cacheResponse(data)
	if s.latency == nil {
		s.latency = metrics.NewHistogram(nil)
	}
	s.latency.Observe(elapsed.Seconds())
	cb(Result{Advs: advs, From: from, Elapsed: elapsed, Hops: hops})
}

// expire is the time-out: nothing answered within the resolver's timeout.
func (l *lookup) expire(uint64) {
	s, onTimeout := l.s, l.onTimeout
	s.hop.release(l)
	if onTimeout != nil {
		onTimeout()
	}
}

// parkedQuery is a query waiting out its scan cost. It owns what it was lent:
// q's Payload and SrcAddr and body's value point into buf. pubs holds the
// publishers a walk hit forwards to; without any, the query is routed.
type parkedQuery struct {
	s    *Service
	q    resolver.Query
	body queryBody
	pubs []srdi.Tuple
	buf  []byte
	ev   env.Event
	fire func() // run, bound once
}

func (s *Service) hops() *hopState {
	if s.hop == nil {
		s.hop = new(hopState)
	}
	return s.hop
}

// park holds a query through its scan cost d, in a recycled record.
func (s *Service) park(d time.Duration, q *resolver.Query, body queryBody, pubs []srdi.Tuple) {
	h := s.hops()
	var p *parkedQuery
	if n := len(h.free); n > 0 {
		p, h.free = h.free[n-1], h.free[:n-1]
	} else {
		p = &parkedQuery{s: s}
		p.fire = p.run
	}
	n, m := len(q.Payload), len(q.Payload)+len(q.SrcAddr)
	p.buf = append(append(append(p.buf[:0], q.Payload...), q.SrcAddr...), body.value...)
	p.q, p.body, p.pubs = *q, body, append(p.pubs[:0], pubs...)
	p.q.Payload, p.q.SrcAddr, p.body.value = p.buf[:n:n], p.buf[n:m:m], p.buf[m:]
	p.ev = s.env.After(d, p.fire)
	h.parked = append(h.parked, p)
}

func (p *parkedQuery) run() {
	h := p.s.hop
	h.parked = slices.DeleteFunc(h.parked, func(o *parkedQuery) bool { return o == p })
	if len(p.pubs) > 0 {
		p.s.forwardToPublishers(&p.q, p.body, p.pubs)
	} else {
		p.s.routeQuery(&p.q, p.body)
	}
	h.recycle(p)
}

// recycle frees a record, keeping its buffers.
func (h *hopState) recycle(p *parkedQuery) {
	*p = parkedQuery{s: p.s, fire: p.fire, buf: p.buf[:0], pubs: p.pubs[:0]}
	h.free = append(h.free, p)
}

// Stop halts periodic work and cancels the queries parked behind their scan
// cost. Index and push state are retained; Reset discards them for a cold
// restart.
func (s *Service) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	if h := s.hop; h != nil {
		for _, p := range h.parked {
			p.ev.Cancel()
			h.recycle(p)
		}
		h.parked = h.parked[:0]
	}
}

// Reset clears the soft protocol state for a cold restart: the SRDI index
// (a restarted rendezvous process starts empty; edges re-push on their next
// lease), the delta-push ledger (every local advertisement is owed again,
// forcing a full re-push) and the delivery dedup set. The local advertisement
// cache is application data and survives.
func (s *Service) Reset() {
	if s.index != nil {
		s.index = srdi.New(s.env)
	} else {
		s.owe(s.cache.LocalAdvertisements())
	}
	s.seen = nil
}

// Quiescent reports whether the service is idle: edge role (no SRDI
// index) and no query parked behind its scan cost. The armed push ticker is
// the periodic wake source, not a blocker.
func (s *Service) Quiescent() bool {
	return s.index == nil && (s.hop == nil || len(s.hop.parked) == 0)
}

// --- Publishing ---

// Publish stores an advertisement locally and pushes its index tuples to
// the rendezvous network. Lifetime zero uses advLifetime.
func (s *Service) Publish(adv advertisement.Advertisement, lifetime time.Duration) {
	if lifetime <= 0 {
		lifetime = advLifetime
	}
	s.cache.Put(adv, lifetime, true)
	if !s.pushTuples(s.tuplesOf(adv, lifetime)) {
		s.owe([]advertisement.Advertisement{adv})
		return
	}
	// Whatever an earlier, failed push of this advertisement owed is paid.
	if delete(s.unpushed, adv.ID()); len(s.unpushed) == 0 {
		s.unpushed = nil
	}
}

// FlushCache drops remotely discovered advertisements (the benchmark's
// per-query cache flush).
func (s *Service) FlushCache() { s.cache.Flush() }

func (s *Service) tuplesOf(adv advertisement.Advertisement, lifetime time.Duration) []srdi.Tuple {
	var room [4]advertisement.IndexField
	fields := advertisement.AppendIndexFields(room[:0], adv)
	tuples := make([]srdi.Tuple, 0, len(fields))
	for _, f := range fields {
		tpl := srdi.Tuple{
			Key:           f.Key(adv.Type()),
			Publisher:     s.ep.ID(),
			PublisherAddr: s.ep.Addr(),
			Lifetime:      lifetime,
		}
		// An integer-valued field's tuple carries its value, which range
		// queries read from the same registration.
		if v, ok := f.Int(); ok {
			tpl.NumAttr = adv.Type() + f.Attr
			tpl.NumValue = v
		}
		tuples = append(tuples, tpl)
	}
	return tuples
}

// owe enters advertisements into the push debt.
func (s *Service) owe(advs []advertisement.Advertisement) {
	if len(advs) > 0 && s.unpushed == nil {
		s.unpushed = make(map[ids.ID]struct{}, len(advs))
	}
	for _, adv := range advs {
		s.unpushed[adv.ID()] = struct{}{}
	}
}

// pushAll sends, in one push, the tuples of every fresh local advertisement
// that is owed to the current rendezvous — or of every one, owed or not:
// a fresh lease or a promotion means a rendezvous that has seen none of
// them. Each tuple lives as long as its advertisement has left. It runs on
// every push tick and normally owes nothing, so it returns before touching
// the cache. A push that fails leaves its advertisements owed for the next
// tick.
func (s *Service) pushAll(everything bool) {
	if !everything && s.unpushed == nil {
		return
	}
	var due []advertisement.Advertisement
	var pending []srdi.Tuple
	for _, adv := range s.cache.LocalAdvertisements() {
		if _, owed := s.unpushed[adv.ID()]; owed || everything {
			due = append(due, adv)
			pending = append(pending, s.tuplesOf(adv, s.cache.Remaining(adv.ID()))...)
		}
	}
	if s.pushTuples(pending) {
		s.unpushed = nil
	} else {
		s.owe(due)
	}
}

// pushTuples delivers tuples to this peer's rendezvous tier: a rendezvous
// indexes (and replicates) directly; an edge sends one SRDI message to its
// lease holder. It reports whether they got there (trivially so for none).
func (s *Service) pushTuples(tuples []srdi.Tuple) bool {
	if len(tuples) == 0 {
		return true
	}
	if s.rdv.IsRendezvous() {
		for _, tpl := range tuples {
			s.indexAndReplicate(tpl, false)
		}
		return true
	}
	rdvID, ok := s.rdv.ConnectedRdv()
	if !ok {
		return false // pushAll retries on the next tick / lease
	}
	return s.sendTuples(rdvID, tuples, false)
}

// sendTuples is the one writer of an SRDI message: it sends tuples to dst in
// one push, marked as replica copies when replicated (the receiver indexes
// those and does not replicate them again), and reports whether the push
// left. Replica copies that left count in TuplesReplicated.
func (s *Service) sendTuples(dst ids.ID, tuples []srdi.Tuple, replicated bool) bool {
	m := message.Acquire()
	if replicated {
		m.AddString("srdi", "Replicated", "1")
	}
	// The scratch grows once. Grown by appending, each move would leave the
	// tuples added before aliasing the old buffer until Release: a handoff's
	// whole index then held several copies of itself at once.
	room := 0
	for _, tpl := range tuples {
		room += tupleFrame + len(tpl.Key) + len(tpl.PublisherAddr) + len(tpl.NumAttr)
	}
	buf := slices.Grow(m.Scratch(), room)
	for _, tpl := range tuples {
		buf = appendTuple(buf, tpl)
		m.AddScratch("srdi", "Tuple", buf)
	}
	err := s.ep.Send(dst, SRDIService, &m.Message)
	m.Release()
	if err == nil && replicated {
		s.Stats.TuplesReplicated += uint64(len(tuples))
	}
	return err == nil
}

// started reports whether the service is running (ticker armed by Start);
// the inbound handlers are gated on it so a stopped peer neither indexes,
// routes, answers nor arms scan-cost timers — it is silent until restarted.
func (s *Service) started() bool { return s.ticker != nil }

// receiveSRDI handles index pushes at a rendezvous. Replicated pushes are
// stored but not re-replicated (loop guard).
func (s *Service) receiveSRDI(src ids.ID, m *message.Message) {
	if !s.started() || s.index == nil {
		return
	}
	flag, _ := m.Get("srdi", "Replicated")
	replicated := string(flag) == "1"
	for _, el := range m.Elements() {
		if el.Namespace != "srdi" || el.Name != "Tuple" {
			continue
		}
		tpl, err := decodeTuple(el.Data, s.ep.RouteTo)
		if err != nil {
			continue
		}
		s.indexAndReplicate(tpl, replicated)
	}
}

// indexAndReplicate stores a tuple and, unless it already is a replica copy,
// forwards it to the replica peer computed over the local peerview — the
// second (and last) message of the paper's O(1) publish path.
func (s *Service) indexAndReplicate(tpl srdi.Tuple, replicated bool) {
	s.index.Add(tpl)
	if replicated {
		return
	}
	if replica := replicaOf(s.rdv.PeerView(), tpl.Key); !replica.Equal(s.ep.ID()) {
		s.sendTuples(replica, []srdi.Tuple{tpl}, true)
	}
}

// --- Discovery ---

// Query searches the overlay for advertisements of advType whose attr equals
// value. The local cache is consulted first; a remote query is issued on a
// miss. The lookup completes on its first answer: cb receives that one
// response, or onTimeout (optional) fires if nothing came back within the
// resolver timeout.
func (s *Service) Query(advType, attr, value string, cb func(Result), onTimeout func()) error {
	return s.query(advType, attr, value, true, false, cb, onTimeout)
}

// QueryAll is Query for a caller that merges what several publishers hold:
// cb receives every response until the resolver timeout, and onTimeout
// fires only if nothing came back.
func (s *Service) QueryAll(advType, attr, value string, cb func(Result), onTimeout func()) error {
	return s.query(advType, attr, value, true, true, cb, onTimeout)
}

// QueryRemote is Query without the local-cache shortcut: the query always
// travels the overlay, so Result.From identifies the live publisher and
// Result.Hops counts real forwards. The routing bake-off's SRDI backend
// measures its lookups with it.
func (s *Service) QueryRemote(advType, attr, value string, cb func(Result), onTimeout func()) error {
	return s.query(advType, attr, value, false, false, cb, onTimeout)
}

func (s *Service) query(advType, attr, value string, useCache, collect bool, cb func(Result), onTimeout func()) error {
	if useCache {
		if local := s.cache.Search(advType, attr, value); len(local) > 0 {
			s.answerLocally(local, cb)
			return nil
		}
	}
	return s.sendQuery(s.scratchQuery(advType, attr, value, stageInitial), collect, cb, onTimeout)
}

// answerLocally hands a cache hit to cb from the scheduler, as a remote
// answer would arrive.
func (s *Service) answerLocally(advs []advertisement.Advertisement, cb func(Result)) {
	res := Result{Advs: advs, From: s.ep.ID()}
	s.env.After(0, func() { cb(res) })
}

// sendQuery issues a remote query to this peer's rendezvous (a rendezvous
// acts as its own); each response's advertisements are cached before cb sees
// them. collect keeps the query open for every responder.
func (s *Service) sendQuery(payload []byte, collect bool, cb func(Result), onTimeout func()) error {
	target := s.ep.ID()
	if !s.rdv.IsRendezvous() {
		rdvID, ok := s.rdv.ConnectedRdv()
		if !ok {
			return ErrNotConnected
		}
		target = rdvID
	}
	send := s.res.SendQuery
	if collect {
		send = s.res.SendCollect
	}
	h := s.hops()
	l := h.newLookup(s)
	l.start, l.cb, l.onTimeout, l.collect = s.env.Now(), cb, onTimeout, collect
	s.Stats.QueriesSent++
	if _, err := send(target, HandlerName, payload, l.answered, l.expired); err != nil {
		h.release(l)
		return err
	}
	return nil
}

// QueryRange searches the overlay for advertisements of advType whose attr
// is an integer within [lo, hi] — the complex-query extension of the
// paper's §5. Ranges cannot be hashed onto a single replica, so the query
// walks the whole peerview; every rendezvous with matching numeric
// registrations forwards it to the publishers, and each publisher answers
// directly. Like QueryAll, cb fires per responder until the resolver
// timeout.
func (s *Service) QueryRange(advType, attr string, lo, hi int64, cb func(Result), onTimeout func()) error {
	if local := s.cache.SearchRange(advType, attr, lo, hi); len(local) > 0 {
		s.answerLocally(local, cb)
		return nil
	}
	return s.sendQuery(encodeRangeQuery(advType, attr, lo, hi, stageRange), true, cb, onTimeout)
}

// handleQuery is the resolver handler running on every peer.
func (s *Service) handleQuery(q *resolver.Query) {
	if !s.started() {
		return // stopped peers do not serve or route queries
	}
	body, err := decodeQuery(q.Payload)
	if err != nil {
		return
	}
	s.Stats.QueriesHandled++
	if body.stage == stageDeliver || body.stage == stageRangeDeliver || !s.rdv.IsRendezvous() {
		// We are (believed to be) the publisher: answer from the local
		// cache, directly to the requester.
		s.deliver(q, body)
		return
	}
	// Rendezvous pipeline. Model the SRDI scan cost, then continue.
	if cost := s.scanCost(); cost > 0 {
		s.busy.Busy(cost)
		s.park(cost, q, body, nil)
		return
	}
	s.routeQuery(q, body)
}

// scanCost is the modeled time one query spends scanning the SRDI. It is
// the simulator's stand-in for work a live node really does, so it is zero
// unless the transport is a BusySink to charge it to: a live node must not
// sleep ScanCost × index size on the wall clock on top of doing the work.
func (s *Service) scanCost() time.Duration {
	if s.busy == nil {
		return 0
	}
	return time.Duration(s.index.Size()) * s.cfg.ScanCost
}

// deliver answers a query from the local cache. Duplicate deliveries of the
// same query are answered once: a range walk, or an exact walk that hits in
// both directions, forwards one query to this publisher from several
// rendezvous.
func (s *Service) deliver(q *resolver.Query, body queryBody) {
	key := seenKey{src: q.Src, qid: q.QID}
	if s.seen[key] {
		return
	}
	if s.seen == nil {
		s.seen = make(map[seenKey]bool)
	}
	s.seen[key] = true
	if len(s.seen) > seenLimit {
		s.seen = nil
	}
	var room [4]advertisement.Advertisement
	var matches []advertisement.Advertisement
	if body.isRange() {
		matches = s.cache.SearchRange(body.advType, body.attr, body.lo, body.hi)
	} else {
		matches = s.cache.AppendSearch(room[:0], body.advType, body.attr, borrowed(body.value))
	}
	if len(matches) == 0 {
		return // nothing to say; the requester times out or hears others
	}
	s.Stats.Delivered++
	_ = s.res.Respond(q, s.encodeResponse(matches))
}

// seenKey identifies a delivered query: its originator and query ID.
type seenKey struct {
	src ids.ID
	qid uint64
}

// seenLimit bounds the dedup set; queries are short-lived, so a coarse
// reset is fine.
const seenLimit = 16384

// routeQuery runs the rendezvous-side LC-DHT logic. It sees a query at most
// twice, each time at a different rendezvous: at the first hop, in the
// initial stage, which forwards only when the replica is another peer, and
// at that replica, in the replica stage, which never forwards again. A range
// query is routed once, at its first hop. Walk hits go through
// forwardToPublishers, never through here. So it dedups nothing.
func (s *Service) routeQuery(q *resolver.Query, body queryBody) {
	if body.stage == stageRange {
		s.routeRange(q, body)
		return
	}

	key := append(append(append(make([]byte, 0, 64), body.advType...), body.attr...), body.value...)

	// 1. Local index hit: forward straight to the publisher(s).
	var room [2]srdi.Tuple
	if pubs := s.index.AppendPublishers(room[:0], string(key)); len(pubs) > 0 {
		s.Stats.LocalHits++
		s.forwardToPublishers(q, body, pubs)
		return
	}
	// Also serve from the local advertisement cache (a rendezvous can
	// publish its own advertisements).
	var found [4]advertisement.Advertisement
	if matches := s.cache.AppendSearch(found[:0], body.advType, body.attr, borrowed(body.value)); len(matches) > 0 {
		s.Stats.Delivered++
		_ = s.res.Respond(q, s.encodeResponse(matches))
		return
	}

	// 2. Initial stage: forward to the computed replica peer.
	if body.stage == stageInitial {
		replica := replicaOf(s.rdv.PeerView(), key)
		if !replica.Equal(s.ep.ID()) {
			s.Stats.ReplicaForwards++
			fq := *q
			fq.Payload = s.nextStage(body, stageReplica)
			_ = s.res.Forward(&fq, replica)
			return
		}
		// We are the replica ourselves: fall through to the walk.
	}

	// 3. Replica miss: walk the peerview in both directions (§3.3).
	if s.cfg.DisableWalk {
		return
	}
	s.startWalk(q, body)
}

// routeRange serves the rendezvous side of a range query: forward to every
// locally known matching publisher, then walk the whole view in both
// directions so every rendezvous gets the same chance. Range queries never
// use the replica shortcut — there is no single hash to route by.
func (s *Service) routeRange(q *resolver.Query, body queryBody) {
	if pubs := s.index.RangePublishers(body.advType+body.attr, body.lo, body.hi); len(pubs) > 0 {
		s.Stats.LocalHits++
		s.forwardToPublishers(q, body, pubs)
	}
	if matches := s.cache.SearchRange(body.advType, body.attr, body.lo, body.hi); len(matches) > 0 {
		s.Stats.Delivered++
		_ = s.res.Respond(q, s.encodeResponse(matches))
	}
	if !s.cfg.DisableWalk {
		s.startWalk(q, body)
	}
}

func (s *Service) forwardToPublishers(q *resolver.Query, body queryBody, pubs []srdi.Tuple) {
	fq := *q
	fq.Payload = s.nextStage(body, stageDeliver)
	for _, pub := range pubs {
		if pub.Publisher.Equal(s.ep.ID()) {
			// We published it ourselves; answer directly.
			s.deliver(q, body)
			continue
		}
		s.ep.AddRoute(pub.Publisher, pub.PublisherAddr)
		_ = s.res.Forward(&fq, pub.Publisher)
	}
}

// nextStage encodes a query for its next hop: an exact-match one in scratch,
// a range one, which only ever moves on to its publishers, in a buffer.
func (s *Service) nextStage(body queryBody, stage string) []byte {
	if body.isRange() {
		return encodeRangeQuery(body.advType, body.attr, body.lo, body.hi, stageRangeDeliver)
	}
	return s.scratchQuery(body.advType, body.attr, borrowed(body.value), stage)
}

// scratchQuery encodes an exact-match query in scratch, for a send that
// keeps nothing of it.
func (s *Service) scratchQuery(advType, attr, value, stage string) []byte {
	h := s.hops()
	h.payload = appendQuery(h.payload[:0], advType, attr, value, stage)
	return h.payload
}

// startWalk launches the up and down walks carrying the resolver query. Each
// direction may visit the whole peerview: the paper's O(r) worst case.
func (s *Service) startWalk(q *resolver.Query, body queryBody) {
	ttl := s.rdv.PeerView().Size() + 1
	s.Stats.WalksStarted++
	wm := message.Acquire()
	wm.AddScratch("disco", "QID", strconv.AppendUint(wm.Scratch(), q.QID, 10))
	wm.AddScratch("disco", "Src", q.Src.AppendString(wm.Scratch()))
	wm.Add("disco", "SrcAddr", q.SrcAddr)
	wm.AddScratch("disco", "Hops", strconv.AppendInt(wm.Scratch(), int64(q.Hops), 10))
	if body.isRange() {
		wm.AddString("disco", "Range", "1")
	} else {
		key := append(append(append(wm.Scratch(), body.advType...), body.attr...), body.value...)
		wm.AddScratch("disco", "Key", key)
	}
	wm.Add("disco", "Payload", q.Payload)
	s.rdv.Walk(rendezvous.Up, ttl, HandlerName, &wm.Message)
	s.rdv.Walk(rendezvous.Down, ttl, HandlerName, &wm.Message)
	wm.Release()
}

// walked is the disco: elements of a walked query, read in place: the
// slices alias the message's payloads.
type walked struct {
	qid, src, srcAddr, hops, key, isRange, payload []byte
}

func readWalked(m *message.Message) (w walked) {
	m.Read("disco",
		message.Field{Name: "QID", Into: &w.qid},
		message.Field{Name: "Src", Into: &w.src},
		message.Field{Name: "SrcAddr", Into: &w.srcAddr},
		message.Field{Name: "Hops", Into: &w.hops},
		message.Field{Name: "Key", Into: &w.key},
		message.Field{Name: "Range", Into: &w.isRange},
		message.Field{Name: "Payload", Into: &w.payload})
	return w
}

// handleWalk inspects a walked query at each visited rendezvous: on an SRDI
// hit the query is forwarded to the publisher and the walk stops. It keeps
// nothing of bodyMsg (see rendezvous.WalkHandler): a hit parked behind its
// scan cost copies the query's return address into its record.
func (s *Service) handleWalk(origin ids.ID, dir rendezvous.Direction, bodyMsg *message.Message) bool {
	if !s.started() || s.index == nil {
		return false
	}
	w := readWalked(bodyMsg)
	isRange := string(w.isRange) == "1"
	if len(w.key) == 0 && !isRange {
		return false
	}
	cost := s.scanCost()
	if cost > 0 {
		s.busy.Busy(cost)
	}
	var room [2]srdi.Tuple
	var pubs []srdi.Tuple
	var body queryBody
	if isRange {
		var err error
		if body, err = decodeQuery(w.payload); err != nil {
			return false
		}
		pubs = s.index.RangePublishers(body.advType+body.attr, body.lo, body.hi)
	} else {
		pubs = s.index.AppendPublishers(room[:0], string(w.key))
	}
	if len(pubs) == 0 {
		return false // keep walking
	}
	s.Stats.WalkHits++
	qid, err := strconv.ParseUint(string(w.qid), 10, 64)
	if err != nil {
		return true
	}
	src, err := ids.ParseBytes(w.src)
	if err != nil {
		return true
	}
	// The hop count came off the wire: hold it to the bound resolver.receive
	// holds its own to, or one forward would side-step MaxHops.
	hops, err := strconv.Atoi(string(w.hops))
	if err != nil || hops < 0 || hops >= resolver.MaxHops {
		return true
	}
	if !isRange {
		if body, err = decodeQuery(w.payload); err != nil {
			return true
		}
	}
	// No Payload: forwardToPublishers writes its own from body.
	q := resolver.Query{Handler: HandlerName, QID: qid, Src: src, SrcAddr: w.srcAddr, Hops: hops + 1}
	if cost > 0 {
		s.park(cost, &q, body, pubs)
	} else {
		s.forwardToPublishers(&q, body, pubs)
	}
	// Exact-match walks stop at the first hit; range walks must visit the
	// whole view so every matching publisher is reached.
	return !isRange
}
