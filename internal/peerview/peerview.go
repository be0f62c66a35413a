// Package peerview implements the JXTA peerview protocol (§3.2 of the
// paper), the sub-protocol of the rendezvous protocol by which rendezvous
// peers organize themselves into a loosely-consistent, ID-ordered membership
// view. The local peerview drives both message routing across the rendezvous
// network and the LC-DHT replica mapping, so its convergence behaviour is
// exactly what the paper's Figure 3 and Figure 4 (left) measure.
//
// The periodic algorithm is the paper's Algorithm 1, with the same tunables
// and defaults:
//
//	PEERVIEW_INTERVAL = 30 s   (Config.Interval)
//	PVE_EXPIRATION    = 20 min (Config.EntryExpiry)
//	HAPPY_SIZE        = 4      (Config.HappySize)
//
// Every iteration the peer (1) removes expired entries, (2) probes its
// upper and lower neighbours in the ID order — or, when the view is happy,
// replaces one probe in three with a one-way update of its own entry — and
// (3) probes its seed rendezvous while the view is below HAPPY_SIZE. A probe
// carries the sender's rendezvous advertisement; the receiver answers with
// its own advertisement and, in a separate message, a referral: the
// advertisement of a randomly chosen third rendezvous. A referral for an
// unknown peer is not inserted directly — the peer probes the referred
// rendezvous first and inserts it when it answers (§3.2).
//
// # Island merge
//
// Under total attrition the tier can fragment into islands: promoted
// successors that anchor disjoint peerviews and never learn the other
// anchors exist (the degenerate case of the paper's §5 volatility axis).
// The merge protocol closes that gap deterministically: when the rendezvous
// service learns of a foreign rendezvous through a gossiped tier rumor
// (Rumor/RumorStore below), it calls Merge — the initiator sends its full
// ID-sorted member list (self included), the receiver unions it into its
// own view and answers with its post-union list, and the initiator unions
// that. Both sides then notify the MergeListener so the layers above can
// re-replicate SRDI tuples and reconcile duplicate client leases.
package peerview

import (
	"slices"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/transport"
)

// ServiceName is the endpoint service the peerview protocol listens on.
const ServiceName = "rdv.peerview"

// Message element names, namespace "pv".
const (
	ns       = "pv"
	elemType = "Type"
	elemAdv  = "RdvAdv"

	typeProbe    = "probe"
	typeResponse = "response"
	typeReferral = "referral"
	typeUpdate   = "update"
	// Merge handshake: the message carries the sender's whole member list
	// as repeated RdvAdv elements (self first, then ascending ID order).
	typeMerge    = "merge"
	typeMergeAck = "mergeack"
)

// Config carries the protocol tunables. The zero value is replaced by the
// paper's defaults.
type Config struct {
	// Interval is PEERVIEW_INTERVAL, the pause between loop iterations.
	Interval time.Duration
	// EntryExpiry is PVE_EXPIRATION, the lifetime of an un-refreshed
	// peerview entry. Set very large (e.g. 365 days) to reproduce the
	// paper's "tuned" configuration of Figure 4 (left).
	EntryExpiry time.Duration
	// HappySize is HAPPY_SIZE, the minimum view size below which the peer
	// probes aggressively (neighbours every round, plus seeds).
	HappySize int
	// ReferralsPerProbe is the *minimum* number of referral advertisements
	// a rendezvous returns for each probe (JXTA-C returns one referral
	// message per probe; the message may carry several advertisements).
	// This is the gossip fan-out that sets the steady-state view size at
	// large r, so the effective batch grows with the view: a peer renews
	// an entry only when some message mentions it, and a view of l entries
	// expiring after EntryExpiry needs ≥ l·Interval/EntryExpiry mentions
	// per round just to stand still. The service sends
	// max(ReferralsPerProbe, ⌈2·l·Interval/EntryExpiry⌉) advertisements
	// per referral message, drawn from a rotating no-replacement cursor
	// (see sendReferrals), which is what lets the r=1,000 view converge
	// within the paper's 120-minute horizon instead of plateauing at the
	// coupon-collector bound of i.i.d. random draws.
	ReferralsPerProbe int
	// ProbeTimeoutRounds enables active failure detection: a view member
	// that was probed this many consecutive iterations without any message
	// coming back is evicted immediately, instead of lingering until
	// EntryExpiry. Zero (the default) disables the mechanism, preserving
	// the paper's loose-consistency behaviour; self-healing deployments
	// enable it so a crashed rendezvous disappears from neighbouring views
	// within a few PEERVIEW_INTERVALs and walks route around it.
	ProbeTimeoutRounds int
}

// DefaultConfig returns the paper's default tunables.
func DefaultConfig() Config {
	return Config{
		Interval:          30 * time.Second,
		EntryExpiry:       20 * time.Minute,
		HappySize:         4,
		ReferralsPerProbe: 2,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.EntryExpiry <= 0 {
		c.EntryExpiry = d.EntryExpiry
	}
	if c.HappySize <= 0 {
		c.HappySize = d.HappySize
	}
	if c.ReferralsPerProbe <= 0 {
		c.ReferralsPerProbe = d.ReferralsPerProbe
	}
	return c
}

// Seed identifies an initial rendezvous contact.
type Seed struct {
	ID   ids.ID
	Addr transport.Addr
}

// Rumor is one gossiped "tier rumor": the identity and address of a peer
// believed to hold (or to have been elected into) the rendezvous role.
// Rumors piggyback on edge traffic — lease requests and grants — so any
// edge that ever contacted two islands becomes a bridge between them. Sig
// is an FNV-1a checksum over the record, standing in for a signature: a
// relay cannot silently corrupt the identity or address in transit without
// the record being dropped on receipt (Verify).
type Rumor struct {
	Seed
	Sig uint64
}

// RumorStore accumulates tier rumors in ascending ID order. Unlike the
// failover alternates — which each lease grant replaces wholesale — the
// store only grows (or refreshes addresses), because a rumor's value is
// exactly that it may name a rendezvous the *current* island has never
// heard of. Entries without an address are rejected: they cannot be probed.
type RumorStore struct {
	order  []Rumor // ascending ID: the ordering is the index (find)
	cursor int     // rotating window position (NextWindow)
	// misses counts the consecutive Sweep calls an identity was dead. Nil
	// until a sweep charges one — only rendezvous sweep, so an edge's store
	// is its ordered slice and nothing else.
	misses map[ids.ID]int
}

// NewRumorStore builds an empty store.
func NewRumorStore() *RumorStore { return &RumorStore{} }

// find returns the position id holds, or would be inserted at, in the
// ascending order, and whether it is present.
func (rs *RumorStore) find(id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(rs.order, id, func(r Rumor, id ids.ID) int { return r.ID.Compare(id) })
}

// Add inserts a verified rumor, keeping ID order. A record for a known ID
// refreshes the stored address. It reports whether the store changed. r may
// have been read in place off a loaned message (ParseRumorBytes): the store
// copies the address it keeps, and a rumor it already holds costs nothing.
func (rs *RumorStore) Add(r Rumor) bool { return r.Verify() && rs.add(r) }

// add is Add for a rumor whose checksum is known to be good.
func (rs *RumorStore) add(r Rumor) bool {
	if r.Addr == "" || r.ID.IsNil() {
		return false
	}
	delete(rs.misses, r.ID) // a fresh sighting resets the aging clock
	i, ok := rs.find(r.ID)
	if ok && rs.order[i].Addr == r.Addr {
		return false
	}
	r.Seed = r.Seed.Clone()
	if ok {
		rs.order[i] = r
	} else {
		rs.order = slices.Insert(rs.order, i, r)
	}
	return true
}

// AddSeed is Add over a locally learned identity (checksummed here).
func (rs *RumorStore) AddSeed(sd Seed) bool { return rs.add(NewRumor(sd)) }

// Len returns the number of stored rumors.
func (rs *RumorStore) Len() int { return len(rs.order) }

// All returns the rumors in ascending ID order (shared backing array; the
// caller must not mutate entries).
func (rs *RumorStore) All() []Rumor { return rs.order }

// NextWindow returns up to n rumors starting at an internal rotating
// cursor, advancing it. Piggyback channels are capped per message; always
// sending the first n by ID would starve every identity past the cap —
// possibly the one pointer that bridges two islands. Rotating the window
// guarantees the whole store circulates over successive messages. Inserts
// shift the order, so a rotation step may repeat or skip an entry once;
// the cycle stays complete and deterministic. The window is returned as the
// two runs of the store it covers — up to the end, then wrapped around from
// the start — which share the store's backing array: read them before the
// next Add or Sweep, and do not mutate them.
func (rs *RumorStore) NextWindow(n int) (head, wrapped []Rumor) {
	total := len(rs.order)
	if total == 0 || n <= 0 {
		return nil, nil
	}
	if n > total {
		n = total
	}
	if rs.cursor >= total {
		rs.cursor = 0
	}
	head = rs.order[rs.cursor:min(rs.cursor+n, total)]
	wrapped = rs.order[:n-len(head)]
	rs.cursor = (rs.cursor + n) % total
	return head, wrapped
}

// Sweep ages the store against a liveness oracle and reports how many
// rumors it evicted. Each call charges one "miss" to every identity for
// which live returns false (and clears the count for live ones); an
// identity dead for deadAfter consecutive sweeps is evicted. Add and
// AddSeed also clear the count — a re-gossiped rumor restarts its clock.
// Without sweeping, a long-lived deployment's store grows monotonically
// with every identity that ever joined the tier; aging bounds it to the
// identities seen alive (or re-rumored) recently, while the multi-sweep
// grace period keeps one missed probe from erasing a merge lead.
// deadAfter <= 0 disables aging entirely (no misses are charged).
func (rs *RumorStore) Sweep(deadAfter int, live func(ids.ID) bool) int {
	if deadAfter <= 0 {
		return 0
	}
	kept := rs.order[:0]
	evicted, shift := 0, 0
	for i, r := range rs.order {
		if live(r.ID) {
			delete(rs.misses, r.ID)
			kept = append(kept, r)
			continue
		}
		m := rs.misses[r.ID] + 1
		if m < deadAfter {
			if rs.misses == nil {
				rs.misses = make(map[ids.ID]int)
			}
			rs.misses[r.ID] = m
			kept = append(kept, r)
			continue
		}
		delete(rs.misses, r.ID)
		evicted++
		if i < rs.cursor {
			shift++ // keep the rotation window anchored on surviving entries
		}
	}
	if evicted == 0 {
		return 0
	}
	rs.order = kept
	rs.cursor -= shift
	return evicted
}

// EventKind classifies peerview membership events (Figure 3 right).
type EventKind int

// Membership event kinds.
const (
	EventAdd EventKind = iota
	EventRemove
)

// String names the event kind.
func (k EventKind) String() string {
	if k == EventAdd {
		return "add"
	}
	return "remove"
}

// Listener observes membership events as they happen.
type Listener func(kind EventKind, peer ids.ID, at time.Duration)

// MergeListener observes completed merge handshakes: it fires once per
// handshake leg, with the counterpart's ID, after the remote member list
// was unioned into the local view. The rendezvous service hooks it to
// re-replicate SRDI tuples and reconcile duplicate client leases.
type MergeListener func(peer ids.ID)

// entry is one peerview slot: the advertisement plus its last refresh time.
// sh is the interning handle (advstore), shared with every other peerview
// holding the same rendezvous — a tier of r rendezvous would otherwise keep
// ~r² private decodes alive — and released when the entry leaves the view.
// It carries the canonical decoded instance (cached in adv) and the
// canonical encoding that referrals and merge lists send.
type entry struct {
	adv     *advertisement.Rdv
	sh      *advstore.Shared
	renewed time.Duration
}

// PeerView runs the protocol for one rendezvous peer.
type PeerView struct {
	env  env.Env
	ep   *endpoint.Endpoint
	self *advertisement.Rdv
	// selfBytes is self's encoding, made once at New: every probe, response,
	// update and merge list carries it.
	selfBytes []byte
	// store interns the view's rendezvous advertisements.
	store *advstore.Store
	cfg   Config
	seeds []Seed

	// entries is the local peerview, sorted by peer ID, excluding self
	// (the paper's measurements exclude the local peer, footnote 2).
	entries  []*entry
	byID     map[ids.ID]*entry
	ticker   *env.Ticker
	boot     env.Event // the immediate first iteration armed by Start
	stopped  bool      // explicitly stopped: ignore inbound traffic
	listener Listener
	onMerge  MergeListener

	// probed tracks outstanding probes triggered by referrals, so one
	// referral storm cannot launch duplicate probes within an interval.
	probed map[ids.ID]time.Duration

	// refCursor is the rotating no-replacement position sendReferrals draws
	// referral batches from, so successive probes walk the whole ID-ordered
	// view instead of re-drawing i.i.d. random samples (see sendReferrals).
	refCursor int

	// missed counts consecutive unanswered neighbour probes per view member
	// (ProbeTimeoutRounds failure detection; unused when disabled).
	missed map[ids.ID]int
	// sentinelIdx round-robins one extra probe per iteration over the
	// non-neighbour view members, so failure detection covers the whole
	// view (neighbour probes alone only watch the two adjacent IDs).
	sentinelIdx int

	// Rounds counts loop iterations (diagnostics).
	Rounds int

	n counts
}

// New builds a peerview for the rendezvous peer described by self, interning
// the advertisements it learns in store. Start must be called to begin the
// periodic algorithm.
func New(e env.Env, ep *endpoint.Endpoint, store *advstore.Store, self *advertisement.Rdv, cfg Config, seeds []Seed) *PeerView {
	pv := &PeerView{
		env:    e,
		ep:     ep,
		self:   self,
		store:  store,
		cfg:    cfg.withDefaults(),
		seeds:  seeds,
		byID:   make(map[ids.ID]*entry),
		probed: make(map[ids.ID]time.Duration),
		missed: make(map[ids.ID]int),
	}
	// Mixed content is the encoder's only error; an Rdv document has none.
	pv.selfBytes, _ = advertisement.EncodeXML(self)
	ep.Register(ServiceName, pv.receive)
	return pv
}

// Start begins the periodic algorithm. The first iteration runs immediately
// (bootstrap probing of seeds), subsequent ones every Interval.
func (pv *PeerView) Start() {
	if pv.ticker != nil {
		return
	}
	pv.stopped = false
	pv.boot = pv.env.After(0, pv.iterate)
	pv.ticker = env.NewTicker(pv.env, pv.cfg.Interval, pv.iterate)
}

// Stop halts the periodic algorithm ("until rendezvous service is stopped").
// The accumulated view is retained — a later Start resumes gossiping from
// it; Restart paths wanting a cold rejoin call Reset first.
func (pv *PeerView) Stop() {
	pv.stopped = true
	if pv.ticker != nil {
		pv.ticker.Stop()
		pv.ticker = nil
	}
	pv.boot.Cancel()
}

// Reset discards the accumulated view and probe-dedup state, as a freshly
// booted rendezvous process would start: the next Start rebuilds the view
// from the seeds. No membership events are emitted for the dropped entries
// (the process observing them is the one restarting).
func (pv *PeerView) Reset() {
	for _, en := range pv.entries {
		en.sh.Release()
	}
	pv.entries = nil
	pv.byID = make(map[ids.ID]*entry)
	pv.probed = make(map[ids.ID]time.Duration)
	pv.missed = make(map[ids.ID]int)
}

// AddSeed appends a bootstrap seed at runtime (live joins).
func (pv *PeerView) AddSeed(seed Seed) { pv.seeds = append(pv.seeds, seed) }

// SetListener installs the membership event observer.
func (pv *PeerView) SetListener(l Listener) { pv.listener = l }

// SetMergeListener installs the merge handshake observer.
func (pv *PeerView) SetMergeListener(l MergeListener) { pv.onMerge = l }

// Size returns l, the local peerview size excluding the local peer.
func (pv *PeerView) Size() int { return len(pv.entries) }

// Contains reports whether the peer is currently in the view.
func (pv *PeerView) Contains(id ids.ID) bool {
	_, ok := pv.byID[id]
	return ok
}

// View returns the ordered peerview including the local peer — the list the
// LC-DHT replica function indexes into (§3.3 computes positions on the full
// ordered list).
func (pv *PeerView) View() []ids.ID {
	out := make([]ids.ID, len(pv.entries)+1)
	for i := range out {
		out[i] = pv.ViewAt(i)
	}
	return out
}

// ViewAt returns View()[i], for i in [0, Size()], without building the view.
func (pv *PeerView) ViewAt(i int) ids.ID {
	self, _ := slices.BinarySearchFunc(pv.entries, pv.self.PeerID, func(en *entry, id ids.ID) int { return en.adv.PeerID.Compare(id) })
	if i == self {
		return pv.self.PeerID
	}
	if i > self {
		i--
	}
	return pv.entries[i].adv.PeerID
}

// Member returns the i-th view entry, 0 ≤ i < Size(), in ascending ID order,
// as a seed record (ID + address). The local peer is not an entry. This is
// how a self-healing rendezvous lists the alternates it shares with its
// lease clients.
func (pv *PeerView) Member(i int) Seed {
	adv := pv.entries[i].adv
	return Seed{ID: adv.PeerID, Addr: transport.Addr(adv.Address)}
}

// Neighbors returns the current lower_rdv and upper_rdv: the entries whose
// IDs immediately precede and follow the local peer ID in the sorted view.
// Either may be Nil when the view is empty on that side (peers at the ends
// of the sorted list have only one neighbour to probe).
func (pv *PeerView) Neighbors() (lower, upper ids.ID) {
	for _, en := range pv.entries {
		if en.adv.PeerID.Less(pv.self.PeerID) {
			lower = en.adv.PeerID
		} else {
			return lower, en.adv.PeerID
		}
	}
	return lower, ids.Nil
}

// iterate is one pass of Algorithm 1.
func (pv *PeerView) iterate() {
	pv.Rounds++
	pv.expireSweep()
	pv.probeTimeoutSweep()

	l := pv.Size()
	lower, upper := pv.Neighbors()
	for _, rdv := range [2]ids.ID{upper, lower} {
		if rdv.IsNil() {
			continue
		}
		if l < pv.cfg.HappySize {
			pv.probeNeighbor(rdv)
		} else if pv.env.Rand().Intn(3) == 0 {
			pv.sendUpdate(rdv)
		} else {
			pv.probeNeighbor(rdv)
		}
	}
	// With failure detection on, also probe one non-neighbour member per
	// iteration (round-robin), so every entry is liveness-checked within l
	// intervals — neighbour probes alone only watch the adjacent IDs.
	if pv.cfg.ProbeTimeoutRounds > 0 && len(pv.entries) > 0 {
		en := pv.entries[pv.sentinelIdx%len(pv.entries)]
		pv.sentinelIdx++
		if id := en.adv.PeerID; !id.Equal(lower) && !id.Equal(upper) {
			pv.probeNeighbor(id)
		}
	}
	if l < pv.cfg.HappySize {
		for _, seed := range pv.seeds {
			if seed.ID.Equal(pv.self.PeerID) {
				continue
			}
			pv.ep.AddRoute(seed.ID, seed.Addr)
			pv.sendProbe(seed.ID)
		}
	}
	// Garbage-collect the referral-probe dedup set.
	cutoff := pv.env.Now() - pv.cfg.Interval
	for id, at := range pv.probed {
		if at < cutoff {
			delete(pv.probed, id)
		}
	}
}

// probeNeighbor probes a view neighbour, counting the outstanding probe for
// failure detection when ProbeTimeoutRounds is enabled. The counter is reset
// by any inbound message from that peer (receive/upsert).
func (pv *PeerView) probeNeighbor(rdv ids.ID) {
	if pv.cfg.ProbeTimeoutRounds > 0 {
		if _, member := pv.byID[rdv]; member {
			pv.missed[rdv]++
		}
	}
	pv.sendProbe(rdv)
}

// probeTimeoutSweep evicts view members whose last ProbeTimeoutRounds
// neighbour probes all went unanswered — the active failure-detection path a
// self-healing overlay runs so dead rendezvous leave the view in a few
// intervals rather than a PVE_EXPIRATION. Disabled (no-op) at the default
// configuration.
func (pv *PeerView) probeTimeoutSweep() {
	if pv.cfg.ProbeTimeoutRounds <= 0 {
		return
	}
	kept := pv.entries[:0]
	for _, en := range pv.entries {
		id := en.adv.PeerID
		if pv.missed[id] >= pv.cfg.ProbeTimeoutRounds {
			delete(pv.byID, id)
			delete(pv.missed, id)
			en.sh.Release()
			pv.n.probeEvicts++
			pv.notify(EventRemove, id)
			continue
		}
		kept = append(kept, en)
	}
	pv.entries = kept
	// Drop counters for peers no longer in the view (neighbour rotation).
	for id := range pv.missed {
		if _, member := pv.byID[id]; !member {
			delete(pv.missed, id)
		}
	}
}

// expireSweep removes entries older than EntryExpiry (Algorithm 1, line 3).
func (pv *PeerView) expireSweep() {
	now := pv.env.Now()
	kept := pv.entries[:0]
	for _, en := range pv.entries {
		if now-en.renewed > pv.cfg.EntryExpiry {
			id := en.adv.PeerID
			delete(pv.byID, id)
			en.sh.Release()
			pv.n.expiries++
			pv.notify(EventRemove, id)
			continue
		}
		kept = append(kept, en)
	}
	pv.entries = kept
}

func (pv *PeerView) notify(kind EventKind, peer ids.ID) {
	if pv.listener != nil {
		pv.listener(kind, peer, pv.env.Now())
	}
}

// internRdv interns one RdvAdv element as it came off the wire. It returns
// nil — and holds no reference — when the bytes are malformed or describe
// anything but a rendezvous advertisement.
func (pv *PeerView) internRdv(wire []byte) (*advstore.Shared, *advertisement.Rdv) {
	sh, err := pv.store.InternBytes(wire)
	if err != nil {
		return nil, nil
	}
	adv, ok := sh.Adv().(*advertisement.Rdv)
	if !ok {
		sh.Release()
		return nil, nil
	}
	return sh, adv
}

// upsert inserts or refreshes the entry for the rendezvous that sh, an
// interned handle on adv, describes, keeping the slice sorted. It takes over
// the caller's reference: the entry keeps it, dropping the one it held
// before. It reports whether the entry was new.
func (pv *PeerView) upsert(sh *advstore.Shared, adv *advertisement.Rdv) bool {
	if adv.PeerID.Equal(pv.self.PeerID) {
		sh.Release()
		return false
	}
	pv.ep.AddRoute(adv.PeerID, transport.Addr(adv.Address))
	if en, ok := pv.byID[adv.PeerID]; ok {
		en.sh.Release()
		en.adv, en.sh = adv, sh
		en.renewed = pv.env.Now()
		return false
	}
	en := &entry{adv: adv, sh: sh, renewed: pv.env.Now()}
	pv.byID[adv.PeerID] = en
	// Binary insertion keeping ID order.
	lo, hi := 0, len(pv.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if pv.entries[mid].adv.PeerID.Less(adv.PeerID) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pv.entries = append(pv.entries, nil)
	copy(pv.entries[lo+1:], pv.entries[lo:])
	pv.entries[lo] = en
	pv.n.adds++
	pv.notify(EventAdd, adv.PeerID)
	return true
}

// sendSelf transmits a typed peerview message carrying the local peer's
// advertisement.
func (pv *PeerView) sendSelf(to ids.ID, msgType string) {
	m := message.Acquire()
	m.AddString(ns, elemType, msgType)
	m.Add(ns, elemAdv, pv.selfBytes)
	pv.send(to, m)
}

// send transmits a pooled message and releases it: the transport has copied
// it by the time Send returns. Unreachable peers age out naturally, so the
// error is dropped.
func (pv *PeerView) send(to ids.ID, m *message.Out) {
	_ = pv.ep.Send(to, ServiceName, &m.Message)
	m.Release()
}

func (pv *PeerView) sendProbe(to ids.ID) {
	pv.n.probes++
	pv.sendSelf(to, typeProbe)
}

func (pv *PeerView) sendUpdate(to ids.ID) {
	pv.n.updates++
	pv.sendSelf(to, typeUpdate)
}

// Merge initiates the deterministic peerview merge handshake with a
// (rumored) foreign rendezvous: the full local member list travels to the
// target, which unions it and answers with its own. A dead or still-edge
// target simply never answers — the initiation costs one message. No-op on
// a stopped view or a self-target.
func (pv *PeerView) Merge(sd Seed) {
	if pv.stopped || pv.onMerge == nil || sd.ID.IsNil() || sd.ID.Equal(pv.self.PeerID) {
		return
	}
	if sd.Addr != "" {
		pv.ep.AddRoute(sd.ID, sd.Addr)
	}
	pv.n.mergesStarted++
	pv.sendView(sd.ID, typeMerge)
}

// sendView sends a typed message carrying the whole view: the local peer's
// advertisement first, then every entry in ascending ID order.
func (pv *PeerView) sendView(to ids.ID, msgType string) {
	m := message.Acquire()
	m.AddString(ns, elemType, msgType)
	m.Add(ns, elemAdv, pv.selfBytes)
	for _, en := range pv.entries {
		m.Add(ns, elemAdv, en.sh.Bytes())
	}
	pv.send(to, m)
}

// receiveMerge handles both legs of the merge handshake: union every
// carried advertisement into the view, answer a request with the (now
// merged) local list, and notify the merge listener.
func (pv *PeerView) receiveMerge(src ids.ID, request bool, m *message.Message) {
	for _, el := range m.Elements() {
		if el.Namespace != ns || el.Name != elemAdv {
			continue
		}
		if sh, adv := pv.internRdv(el.Data); sh != nil {
			pv.upsert(sh, adv)
		}
	}
	if request {
		pv.sendView(src, typeMergeAck)
	}
	if pv.onMerge != nil {
		pv.onMerge(src)
	}
}

// receive handles inbound peerview messages. An explicitly stopped
// peerview ignores them: answering probes would let neighbours refresh the
// stopped peer in their views forever, and probing referrals would send
// from a peer that is supposed to be gone. (A not-yet-started peerview
// still learns — unit harnesses drive the protocol without the loop.)
func (pv *PeerView) receive(src ids.ID, m *message.Message) {
	if pv.stopped {
		return
	}
	// Any message from the peer itself proves liveness. Referrals renew a
	// third party's *entry* below but must not reset its missed-probe
	// counter — a stale advertisement relayed by a neighbour is not a sign
	// of life.
	delete(pv.missed, src)
	// Classify on the element bytes: switch string(b) compares in place,
	// without making a string of them.
	msgType, _ := m.Get(ns, elemType)
	switch string(msgType) {
	case typeMerge, typeMergeAck:
		// The merge protocol is opt-in: a view whose owner never installed
		// a merge listener (the rendezvous service installs one only with
		// IslandMerge enabled) must not bulk-union member lists a foreign
		// peer sends it — a one-sided union would enlarge its replica
		// mapping without the SRDI re-replication that keeps it honest.
		if pv.onMerge != nil {
			pv.receiveMerge(src, string(msgType) == typeMerge, m)
		}
	case typeReferral:
		// One referral message carries a batch of advertisements as repeated
		// RdvAdv elements (JXTA-C ships several advertisements per referral
		// message); apply each independently.
		for _, el := range m.Elements() {
			if el.Namespace != ns || el.Name != elemAdv {
				continue
			}
			if sh, adv := pv.internRdv(el.Data); sh != nil {
				pv.receiveReferral(sh, adv)
			}
		}
	case typeProbe, typeResponse, typeUpdate:
		data, ok := m.Get(ns, elemAdv)
		if !ok {
			return
		}
		sh, adv := pv.internRdv(data)
		if sh == nil {
			return
		}
		// The message carries the sender's advertisement: learn/refresh it.
		pv.upsert(sh, adv)
		if string(msgType) == typeProbe {
			// Answer a probe with our own advertisement plus a separate
			// referral message naming a batch of other rendezvous from the
			// local view.
			pv.sendSelf(src, typeResponse)
			pv.sendReferrals(src)
		}
	}
}

// receiveReferral applies one referred advertisement: a known peer is
// renewed in place, an unknown one is probed before insertion (§3.2), with
// per-interval dedup so referral bursts cannot launch duplicate probes. It
// takes over the caller's reference on sh.
func (pv *PeerView) receiveReferral(sh *advstore.Shared, adv *advertisement.Rdv) {
	if pv.byID[adv.PeerID] != nil {
		// Known peer: the referral's fresh advertisement renews it.
		pv.upsert(sh, adv)
		return
	}
	// Unknown: only the identity and address are used, to probe it.
	sh.Release()
	if adv.PeerID.Equal(pv.self.PeerID) {
		return
	}
	if _, inflight := pv.probed[adv.PeerID]; inflight {
		return
	}
	pv.probed[adv.PeerID] = pv.env.Now()
	pv.ep.AddRoute(adv.PeerID, transport.Addr(adv.Address))
	pv.sendProbe(adv.PeerID)
}

// referralBatch returns how many advertisements to pack into one referral
// message: the ReferralsPerProbe floor, raised so that a view of l entries
// is fully re-mentioned about twice per EntryExpiry horizon. An entry
// survives only while something renews it within EntryExpiry; each of the
// two steady-state neighbour probes per round pulls one batch back, so the
// view cycles through the cursor at ~2·batch entries per Interval and the
// batch must be ≥ l·Interval/(2·(EntryExpiry/2)) = l·Interval/EntryExpiry
// per probe to outpace expiry — doubled for slack against probe/update
// randomization and lost messages. At the paper defaults this stays at the
// floor (2) until l exceeds 40 and reaches 50 at l=999 — still one message.
func (pv *PeerView) referralBatch() int {
	want := pv.cfg.ReferralsPerProbe
	l := len(pv.entries)
	need := int((2*time.Duration(l)*pv.cfg.Interval + pv.cfg.EntryExpiry - 1) / pv.cfg.EntryExpiry)
	if need > want {
		want = need
	}
	if want > l {
		want = l
	}
	return want
}

// sendReferrals answers a probe with one referral message carrying a batch
// of view advertisements (excluding the prober). Entries are drawn from a
// rotating no-replacement cursor over the ID-ordered view, so successive
// probes hand out the whole view in deterministic rotation. The pre-PR 10
// behaviour — i.i.d. random draws, fixed at ReferralsPerProbe — hits the
// coupon-collector bound at large r (240 rounds × ~4 draws over 999
// identities mention ~62% of them) and renews entries too rarely to beat
// EntryExpiry, which is exactly the ~605/999 plateau that
// PERFORMANCE_HISTORY.md records at r=1,000. Inserts and removals shift the
// cursor's anchor by at most one entry per change; the rotation stays
// complete.
func (pv *PeerView) sendReferrals(to ids.ID) {
	n := len(pv.entries)
	if n == 0 {
		return
	}
	want := pv.referralBatch()
	m := message.Acquire()
	m.AddString(ns, elemType, typeReferral)
	added := 0
	for i := 0; i < n && added < want; i++ {
		if pv.refCursor >= n {
			pv.refCursor = 0
		}
		en := pv.entries[pv.refCursor]
		pv.refCursor++
		if en.adv.PeerID.Equal(to) {
			continue
		}
		m.Add(ns, elemAdv, en.sh.Bytes())
		added++
	}
	if added == 0 {
		m.Release()
		return
	}
	pv.send(to, m)
}
