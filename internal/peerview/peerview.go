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
// The merge handshake closes that gap deterministically: Merge makes the
// initiator send its full ID-sorted member list (self included), the
// receiver unions it into its own view and answers with its post-union
// list, and the initiator unions that. Both sides then notify the
// MergeListener so the layers above can re-replicate SRDI tuples and
// reconcile duplicate client leases. Which peer to merge with, and when, is
// the rendezvous service's business: it learns foreign anchors from the
// tier rumors its lease traffic gossips.
package peerview

import (
	"bytes"
	"cmp"
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

// probe is an outstanding referral probe: when it was sent, and the address
// the referral named, which is cleared when the peer is admitted.
type probe struct {
	at   time.Duration
	addr transport.Addr
}

// Seed identifies an initial rendezvous contact.
type Seed struct {
	ID   ids.ID
	Addr transport.Addr
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

// entry is one view member's record, in 24 bytes: the advertisement, its
// last refresh time, its search key and its miss count. sh is the interning
// handle (advstore), shared with every other peerview holding the same
// rendezvous — a tier of r rendezvous would otherwise keep ~r² private
// decodes alive — and released when the entry leaves the view. It carries
// the canonical decoded instance (rdv) and the canonical encoding that
// referrals and merge lists send, and that a repeated mention is compared
// with (hear) before it could reach the store. key is the peer ID's Prefix,
// which find orders by without reading the advertisement. missed counts
// consecutive unanswered probes (ProbeTimeoutRounds failure detection).
type entry struct {
	sh      *advstore.Shared
	renewed time.Duration
	key     uint32
	missed  int32
}

// rdv returns the entry's advertisement.
func (en *entry) rdv() *advertisement.Rdv { return en.sh.Adv().(*advertisement.Rdv) }

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
	// (the paper's measurements exclude the local peer, footnote 2). The
	// order is the index: find looks an ID up by binary search.
	entries  []*entry
	ticker   *env.Ticker
	boot     env.Event // the immediate first iteration armed by Start
	stopped  bool      // explicitly stopped: ignore inbound traffic
	listener Listener
	onMerge  MergeListener

	// probed tracks outstanding probes triggered by referrals, so one
	// referral storm cannot launch duplicate probes within an interval. It
	// is nil until first written, and the sweep that empties it sets it back
	// to nil: a map keeps its peak capacity after deletes, and the peak is
	// the burst of a converging tier. A probe's address is the stranger's
	// route until the stranger is admitted (Route).
	probed map[ids.ID]probe

	// refCursor is the rotating no-replacement position sendReferrals draws
	// referral batches from, so successive probes walk the whole ID-ordered
	// view instead of re-drawing i.i.d. random samples (see sendReferrals).
	refCursor int

	// lastHit is the position find last found an ID at (find).
	lastHit int

	// sentinelIdx round-robins one extra probe per iteration over the
	// non-neighbour view members, so failure detection covers the whole
	// view (neighbour probes alone only watch the two adjacent IDs).
	sentinelIdx int

	n counts
}

// New builds a peerview for the rendezvous peer described by self, interning
// the advertisements it learns in store. Start must be called to begin the
// periodic algorithm. The seeds are kept clipped to their length, so that
// AddSeed never writes into the caller's spare capacity.
func New(e env.Env, ep *endpoint.Endpoint, store *advstore.Store, self *advertisement.Rdv, cfg Config, seeds []Seed) *PeerView {
	pv := &PeerView{
		env:   e,
		ep:    ep,
		self:  self,
		store: store,
		cfg:   cfg.withDefaults(),
		seeds: slices.Clip(seeds),
	}
	// Mixed content is the encoder's only error; an Rdv document has none.
	pv.selfBytes, _ = advertisement.EncodeXML(self)
	ep.Register(ServiceName, pv.receive)
	ep.SetRouteSource(pv)
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
// (the process observing them is the one restarting), and the members'
// routes go with them, as the endpoint's own do in the Endpoint.Reset that
// node.Restart pairs it with.
func (pv *PeerView) Reset() {
	for _, en := range pv.entries {
		en.sh.Release()
	}
	pv.entries = nil
	pv.probed = nil
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
	_, ok := pv.Lookup(id)
	return ok
}

// Lookup returns the view entry for id as a seed record, as Member does, and
// whether id is in the view.
func (pv *PeerView) Lookup(id ids.ID) (Seed, bool) {
	if i, ok := pv.find(id); ok {
		return pv.Member(i), true
	}
	return Seed{}, false
}

// find returns the position id holds, or would be inserted at, in the
// ascending view, and whether it is present. It orders by the entries' keys
// and reads an advertisement only where a key ties with id's. The position
// of the last hit is tried first: a message from a member is looked up by
// the endpoint's route lookup (Route), then by receive, then by the route of
// each reply, and one search answers them all.
func (pv *PeerView) find(id ids.ID) (int, bool) {
	key := id.Prefix()
	if h := pv.lastHit; h < len(pv.entries) {
		if en := pv.entries[h]; en.key == key && en.rdv().PeerID.Equal(id) {
			return h, true
		}
	}
	i, ok := slices.BinarySearchFunc(pv.entries, id, func(en *entry, id ids.ID) int {
		if en.key != key {
			return cmp.Compare(en.key, key)
		}
		return en.rdv().PeerID.Compare(id)
	})
	if ok {
		pv.lastHit = i
	}
	return i, ok
}

// Route returns the address the view member's advertisement names, or the
// one the referral named for a stranger being probed: a rendezvous' endpoint
// routes to both through the view (endpoint.RouteSource) and keeps no copy
// of their addresses.
func (pv *PeerView) Route(peer ids.ID) (transport.Addr, bool) {
	if i, ok := pv.find(peer); ok {
		a := pv.entries[i].rdv().Address
		return transport.Addr(a), a != ""
	}
	p := pv.probed[peer]
	return p.addr, p.addr != ""
}

// EachRouted calls f for every peer Route gives an address
// (endpoint.RouteSource). A probe keeps no address past its peer's
// admission, so no peer is named twice.
func (pv *PeerView) EachRouted(f func(ids.ID)) {
	for _, en := range pv.entries {
		if adv := en.rdv(); adv.Address != "" {
			f(adv.PeerID)
		}
	}
	for id, p := range pv.probed {
		if p.addr != "" {
			f(id)
		}
	}
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
	self, _ := pv.find(pv.self.PeerID)
	if i == self {
		return pv.self.PeerID
	}
	if i > self {
		i--
	}
	return pv.entries[i].rdv().PeerID
}

// Member returns the i-th view entry, 0 ≤ i < Size(), in ascending ID order,
// as a seed record (ID + address). The local peer is not an entry. This is
// how a self-healing rendezvous lists the alternates it shares with its
// lease clients.
func (pv *PeerView) Member(i int) Seed {
	adv := pv.entries[i].rdv()
	return Seed{ID: adv.PeerID, Addr: transport.Addr(adv.Address)}
}

// Neighbors returns the current lower_rdv and upper_rdv: the entries whose
// IDs immediately precede and follow the local peer ID in the sorted view.
// Either may be Nil when the view is empty on that side (peers at the ends
// of the sorted list have only one neighbour to probe).
func (pv *PeerView) Neighbors() (lower, upper ids.ID) {
	i, _ := pv.find(pv.self.PeerID)
	if i > 0 {
		lower = pv.entries[i-1].rdv().PeerID
	}
	if i < len(pv.entries) {
		upper = pv.entries[i].rdv().PeerID
	}
	return lower, upper
}

// iterate is one pass of Algorithm 1.
func (pv *PeerView) iterate() {
	pv.n.rounds++
	pv.sweep()

	// upper_rdv is at the local peer's position in the view, lower_rdv
	// before it (Neighbors).
	l := pv.Size()
	self, _ := pv.find(pv.self.PeerID)
	for _, at := range [2]int{self, self - 1} {
		if at < 0 || at >= l {
			continue
		}
		if l < pv.cfg.HappySize {
			pv.probeNeighbor(pv.entries[at])
		} else if pv.env.Rand().Intn(3) == 0 {
			pv.sendUpdate(pv.entries[at].rdv().PeerID)
		} else {
			pv.probeNeighbor(pv.entries[at])
		}
	}
	// With failure detection on, also probe one non-neighbour member per
	// iteration (round-robin), so every entry is liveness-checked within l
	// intervals — neighbour probes alone only watch the adjacent IDs.
	if pv.cfg.ProbeTimeoutRounds > 0 && l > 0 {
		at := pv.sentinelIdx % l
		pv.sentinelIdx++
		if at != self && at != self-1 {
			pv.probeNeighbor(pv.entries[at])
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
	// Garbage-collect the referral-probe dedup set. A stranger that never
	// answered keeps its route in the endpoint's table.
	cutoff := pv.env.Now() - pv.cfg.Interval
	for id, p := range pv.probed {
		if p.at < cutoff {
			delete(pv.probed, id)
			pv.ep.SourceMoved(id, p.addr, "")
		}
	}
	if len(pv.probed) == 0 {
		pv.probed = nil
	}
}

// probeNeighbor probes a view member, counting the outstanding probe for
// failure detection when ProbeTimeoutRounds is enabled. Any inbound message
// from that peer resets the count (receive).
func (pv *PeerView) probeNeighbor(en *entry) {
	if pv.cfg.ProbeTimeoutRounds > 0 {
		en.missed++
	}
	pv.sendProbe(en.rdv().PeerID)
}

// sweep removes the entries older than EntryExpiry (Algorithm 1, line 3)
// and, with failure detection on, the members whose last ProbeTimeoutRounds
// probes all went unanswered — the path a self-healing overlay runs so a
// dead rendezvous leaves the view in a few intervals rather than a
// PVE_EXPIRATION. A kept entry's advertisement, a heap object of its own,
// is not read: the sweep visits every entry each interval, and reading it
// cost peerview-r200 about 4 % of its event rate. A departing entry's
// address moves into the endpoint's table, which routes to the peer from now
// on (SourceMoved).
func (pv *PeerView) sweep() {
	now := pv.env.Now()
	kept := pv.entries[:0]
	for _, en := range pv.entries {
		switch {
		case now-en.renewed > pv.cfg.EntryExpiry:
			pv.n.expiries++
		case pv.cfg.ProbeTimeoutRounds > 0 && int(en.missed) >= pv.cfg.ProbeTimeoutRounds:
			pv.n.probeEvicts++
		default:
			kept = append(kept, en)
			continue
		}
		adv := en.rdv()
		pv.ep.SourceMoved(adv.PeerID, transport.Addr(adv.Address), "")
		en.sh.Release()
		pv.notify(EventRemove, adv.PeerID)
	}
	clear(pv.entries[len(kept):])
	pv.entries = kept
}

func (pv *PeerView) notify(kind EventKind, peer ids.ID) {
	if pv.listener != nil {
		pv.listener(kind, peer, pv.env.Now())
	}
}

// hear applies one RdvAdv element as it came off the wire: a probe, response
// or update (admit), each element of a merge list (admit) and each element of
// a referral batch (not admit: an unknown peer is probed before insertion,
// §3.2, with per-interval dedup so referral bursts cannot launch duplicate
// probes). guess is where the named entry is expected. A repeated mention
// stops at the entry whose bytes it equals; a referral naming a stranger
// whose probe is in flight stops at the ID; only a new or changed
// advertisement is interned. It returns the position after the named peer,
// the guess for the next element of a run of the sender's ID-ordered view,
// and whether wire is a rendezvous advertisement at all.
func (pv *PeerView) hear(wire []byte, guess int, admit bool) (next int, ok bool) {
	if guess < len(pv.entries) && pv.renewHeld(guess, wire) {
		return guess + 1, true
	}
	// The ID is only a hint: renewHeld confirms it byte for byte, and a
	// peek that DecodeXML would refuse is refused by InternBytes below.
	id, ok := advertisement.RdvPeerIDBytes(wire)
	if !ok {
		return guess, false
	}
	i, held := pv.find(id)
	if held && pv.renewHeld(i, wire) {
		return i + 1, true
	}
	if !held && !admit {
		if _, inflight := pv.probed[id]; inflight {
			return i, true
		}
	}
	sh, err := pv.store.InternBytes(wire)
	if err != nil {
		return i, false
	}
	if id.Equal(pv.self.PeerID) {
		sh.Release()
		return i, true
	}
	// The peek read a RdvAdvertisement root, so the bytes decode to an *Rdv.
	addr := transport.Addr(sh.Adv().(*advertisement.Rdv).Address)
	switch {
	case held:
		en := pv.entries[i]
		pv.ep.SourceMoved(id, transport.Addr(en.rdv().Address), addr)
		en.sh.Release()
		en.sh, en.renewed = sh, pv.env.Now()
	case admit:
		pv.entries = slices.Insert(pv.entries, i, &entry{sh: sh, renewed: pv.env.Now(), key: id.Prefix()})
		var prev transport.Addr
		if p, ok := pv.probed[id]; ok && p.addr != "" {
			// The entry routes from now on; the probe stays for dedup.
			prev = p.addr
			pv.probed[id] = probe{at: p.at}
		}
		pv.ep.SourceMoved(id, prev, addr)
		pv.n.adds++
		pv.notify(EventAdd, id)
	default:
		// Unknown: only the identity and address are used, to probe it.
		sh.Release()
		if pv.probed == nil {
			pv.probed = make(map[ids.ID]probe)
		}
		pv.probed[id] = probe{at: pv.env.Now(), addr: addr}
		pv.ep.SourceMoved(id, "", addr)
		pv.sendProbe(id)
		return i, true
	}
	return i + 1, true
}

// renewHeld renews entry i when wire is, byte for byte, the encoding it
// holds: one comparison, no hash, no store, no allocation. Whatever picked i
// is only a hint; a document that differs in any byte never renews the
// entry.
//
// It writes no route: the route to a view member is the entry itself, which
// the endpoint reads (Route), not a copy written when the bytes were
// interned. Those bytes carry the Address, so a peer that moved sends other
// bytes, fails the comparison and takes hear's intern path, where the new
// address becomes the route (SourceMoved). A route written since for the
// member stays the endpoint's answer, as the last write, until then; every
// writer but a fuzzer writes the address the peer announces as its own,
// which is the one its advertisement carries (the envelope's SrcAddr, a
// resolver query's, an SRDI publisher's and a lease record's are the
// sender's tr.Addr(), as is the Address that node.New advertises, on Sim and
// TCP alike), and such a write stores nothing (endpoint.AddRoute).
func (pv *PeerView) renewHeld(i int, wire []byte) bool {
	en := pv.entries[i]
	if !bytes.Equal(en.sh.Bytes(), wire) {
		return false
	}
	en.renewed = pv.env.Now()
	return true
}

// sendSelf transmits a typed peerview message carrying the local peer's
// advertisement.
func (pv *PeerView) sendSelf(to ids.ID, msgType string) {
	m := message.Acquire()
	m.AddString(ns, elemType, msgType)
	m.AddFixed(ns, elemAdv, pv.selfBytes)
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
	m.AddFixed(ns, elemAdv, pv.selfBytes)
	for _, en := range pv.entries {
		m.AddFixed(ns, elemAdv, en.sh.Bytes())
	}
	pv.send(to, m)
}

// receive handles inbound peerview messages. An explicitly stopped
// peerview ignores them: answering probes would let neighbours refresh the
// stopped peer in their views forever, and probing referrals would send
// from a peer that is supposed to be gone. (A not-yet-started peerview
// still learns — unit harnesses drive the protocol without the loop.)
// Every advertisement a message carries is applied by hear.
func (pv *PeerView) receive(src ids.ID, m *message.Message) {
	if pv.stopped {
		return
	}
	// Any message from the peer itself proves liveness. Referrals renew a
	// third party's *entry* below but must not reset its missed-probe
	// counter — a stale advertisement relayed by a neighbour is not a sign
	// of life.
	at, held := pv.find(src)
	if held {
		pv.entries[at].missed = 0
	}
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
		if pv.onMerge == nil {
			return
		}
		// Union the carried list into the view, answer a request with the
		// (now merged) local list, and notify the merge listener.
		pv.hearAll(m, true)
		if string(msgType) == typeMerge {
			pv.sendView(src, typeMergeAck)
		}
		pv.onMerge(src)
	case typeReferral:
		// One referral message carries a batch of advertisements as repeated
		// RdvAdv elements (JXTA-C ships several advertisements per referral
		// message); each is applied independently.
		pv.hearAll(m, false)
	case typeProbe, typeResponse, typeUpdate:
		data, ok := m.Get(ns, elemAdv)
		if !ok {
			return
		}
		// The message carries the sender's advertisement: learn/refresh it,
		// where the lookup above found the sender's entry or its place.
		if _, ok := pv.hear(data, at, true); !ok {
			return
		}
		if string(msgType) == typeProbe {
			// Answer a probe with our own advertisement plus a separate
			// referral message naming a batch of other rendezvous from the
			// local view.
			pv.sendSelf(src, typeResponse)
			pv.sendReferrals(src)
		}
	}
}

// hearAll applies every RdvAdv element of m. A referral batch and a merge
// list are runs of the sender's ID-ordered view, so each element's guess is
// the entry after the one before it.
func (pv *PeerView) hearAll(m *message.Message, admit bool) {
	next := 0
	for _, el := range m.Elements() {
		if el.Namespace == ns && el.Name == elemAdv {
			next, _ = pv.hear(el.Data, next, admit)
		}
	}
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
		if en.rdv().PeerID.Equal(to) {
			continue
		}
		m.AddFixed(ns, elemAdv, en.sh.Bytes())
		added++
	}
	if added == 0 {
		m.Release()
		return
	}
	pv.send(to, m)
}
