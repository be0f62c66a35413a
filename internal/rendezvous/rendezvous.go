// Package rendezvous implements the JXTA rendezvous protocol minus the
// peerview (which lives in internal/peerview): the rendezvous lease
// protocol, by which edge peers subscribe to a rendezvous peer, and the
// rendezvous propagation protocol (the walker), which moves messages across
// the ID-ordered rendezvous network (§3.2 items 2 and 3).
//
// Roles: a peer runs either as a rendezvous (super-peer, owns a peerview,
// serves leases) or as an edge (holds a lease on one rendezvous and renews
// it; fails over to another seed when the rendezvous dies). The role is
// dynamic: Promote swaps an edge to the rendezvous role in place, which is
// how a self-healing overlay replaces a dead super-peer without redeploying
// (Config.SelfHeal).
//
// # Self-healing
//
// With SelfHeal enabled, lease grants carry two extra state snapshots: the
// rendezvous' current peerview members ("alternates") and its client roster.
// Edges use the alternates to re-seed their failover rotation when the
// rendezvous dies silently — the fall-back the peerview provides — and the
// roster to run a deterministic successor election when *no* rendezvous is
// reachable at all: every client picks the lowest-ID roster member, that
// client promotes itself to the rendezvous role (via the hook the node
// installs), and the others re-lease with it. A gracefully stopping
// rendezvous goes further and hands its state off explicitly: the client
// lease table (and, through registered state exporters, the SRDI index)
// transfers to a successor — a peerview neighbour when one exists, an
// elected client otherwise — and every remaining client is redirected, so
// discovery keeps answering through the transition.
package rendezvous

import (
	"strconv"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/peerview"
	"jxta/internal/transport"
)

// Endpoint service names.
const (
	LeaseService = "rdv.lease"
	WalkService  = "rdv.walk"
)

// Lease protocol elements, namespace "lease".
const (
	leaseNS       = "lease"
	elemRequest   = "Request"  // requested duration (ns)
	elemGranted   = "Granted"  // granted duration (ns)
	elemCancelled = "Cancel"   // edge departing
	elemAddr      = "Addr"     // requester's transport address (SelfHeal)
	elemAlt       = "Alt"      // repeated: peerview member "id addr" (SelfHeal)
	elemClient    = "Cli"      // repeated: client roster/handoff entry (SelfHeal)
	elemHandoff   = "Handoff"  // lease-table handoff to the successor (SelfHeal)
	elemRedirect  = "Redirect" // "id addr" of the successor to re-lease with
	elemRumor     = "Rumor"    // repeated: gossiped tier rumor "id addr sig" (IslandMerge)
	elemMergeRst  = "MergeR"   // merge reconciliation: sender's client roster (IslandMerge)
	elemTierProbe = "TProbe"   // tier probe: "is the rumored peer (near) a rendezvous?"
	elemTierAck   = "TAck"     // tier probe answer, carrying a rumor to merge with
)

// Walk protocol elements, namespace "walk".
const (
	walkNS      = "walk"
	elemDir     = "Dir" // "up" or "down"
	elemTTL     = "TTL"
	elemSvc     = "Svc"    // target endpoint service at each hop
	elemPayload = "Body"   // embedded message bytes
	elemOrigin  = "Origin" // originating peer (dedup / diagnostics)
	elemWalkID  = "WID"    // walk instance ID
)

// Direction of a peerview walk.
type Direction int

// Walk directions along the ID-sorted peerview.
const (
	Up Direction = iota
	Down
)

// String names the direction.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Config tunes the lease protocol.
type Config struct {
	// LeaseDuration is how long a granted lease lasts (default 20 min,
	// mirroring JXTA-C).
	LeaseDuration time.Duration
	// ResponseTimeout bounds the wait for a lease grant before the edge
	// fails over to the next seed (default 15 s).
	ResponseTimeout time.Duration
	// FailoverAttempts bounds *consecutive* unanswered lease requests: after
	// this many the edge stops hammering dead candidates (default 8). What
	// happens next depends on SelfHeal — a self-healing edge runs the
	// successor election; otherwise it goes dormant until Connect/AddSeed.
	FailoverAttempts int
	// SelfHeal enables the self-healing machinery: grants carry alternates
	// and the client roster, requests carry the edge's address, exhausted
	// failover runs the promotion election, and a graceful Stop hands the
	// lease table off to a successor. Off by default — the wire format and
	// timer sequence of the paper-faithful protocol stay bit-identical.
	SelfHeal bool
	// IslandMerge enables gossip-driven merging of fragmented rendezvous
	// islands: lease requests and grants piggyback checksummed "tier rumor"
	// records naming every rendezvous the sender ever heard of, so an edge
	// that contacted two islands bridges them — its rendezvous learns of
	// the foreign anchor, runs the deterministic peerview merge handshake,
	// re-replicates SRDI tuples over the merged view and reconciles
	// duplicate client leases (lowest-ID rendezvous wins, losers redirect).
	// Off by default: no rumor element leaves the peer and no merge is ever
	// initiated, keeping the SelfHeal-only wire format byte-identical.
	// Usually enabled together with SelfHeal (islands form through
	// promotion), but functional without it.
	IslandMerge bool
}

// renewFraction is the share of a lease after which the edge renews it.
const renewFraction = 0.5

// rumorDeadSweeps bounds the IslandMerge rumor store on long-lived
// deployments: an identity that answers nothing — not a peerview member,
// not a leased client, never re-gossiped — for this many consecutive client
// sweeps (each LeaseDuration/4) is retired from the rumor store, and with it
// the periodic tier probe retryMerges keeps sending to that identity, so a
// confirmed-dead rumor stops consuming probe traffic. Re-gossip of the
// identity restarts its clock, so only rumors the whole overlay stopped
// mentioning age out. Four sweeps is one full LeaseDuration: every live peer
// renews a lease (and so re-gossips or re-appears) at least once inside that
// window, while a dormant edge only needs to answer one probe to revive.
const rumorDeadSweeps = 4

// DefaultConfig returns JXTA-C-like lease tunables.
func DefaultConfig() Config {
	return Config{
		LeaseDuration:    20 * time.Minute,
		ResponseTimeout:  15 * time.Second,
		FailoverAttempts: 8,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = d.LeaseDuration
	}
	if c.ResponseTimeout <= 0 {
		c.ResponseTimeout = d.ResponseTimeout
	}
	if c.FailoverAttempts <= 0 {
		c.FailoverAttempts = d.FailoverAttempts
	}
	return c
}

// Caps on the state snapshots a grant carries, bounding message growth on
// large overlays.
const (
	maxAlternates = 8
	maxRoster     = 16
	// maxRumors caps the tier rumors piggybacked per lease message
	// (IslandMerge). Generous relative to maxAlternates: a starved rumor
	// list could permanently hide the one cross-island identity that would
	// have bridged two islands.
	maxRumors = 16
)

// WalkHandler consumes a walked message at each visited rendezvous. Returning
// true stops the walk at this peer (the walk found what it was looking for).
//
// body is on loan for the duration of the call, exactly as the delivered
// message it was decoded from is (transport.Handler): the message is taken
// back when the handler returns, and the names and payloads its elements
// point at are views of the delivery, which the transport then reuses. A
// handler copies whatever it keeps.
type WalkHandler func(origin ids.ID, dir Direction, body *message.Message) (stop bool)

// LeaseListener observes edge connectivity changes.
type LeaseListener func(rdv ids.ID, connected bool)

// StateExporter supplies extra handoff payloads for a graceful stop: the
// messages are delivered to the successor at the named endpoint service.
// Discovery registers one exporting the SRDI index as a standard push, so
// the successor both indexes and re-replicates every tuple.
type StateExporter func() (svc string, msgs []*message.Message)

// clientLease is one granted lease at a rendezvous.
type clientLease struct {
	expires time.Duration
	addr    string // transport address, when the edge shared it (SelfHeal)
}

// Service is the rendezvous service of one peer, in either role.
type Service struct {
	env env.Env
	ep  *endpoint.Endpoint
	cfg Config
	// leaseText is cfg.LeaseDuration in the lease protocol's decimal
	// nanoseconds, rendered once: every request and nearly every grant
	// carries exactly this value.
	leaseText string

	// Rendezvous role. The maps here and mergeTried below are nil until
	// first written (reads of a nil map are already correct), so an edge
	// never allocates them.
	pv          *peerview.PeerView // nil on edges
	clients     map[ids.ID]clientLease
	clientSweep *env.Ticker
	// walkHandlers is a slice, not a map: a service registers once, on every
	// peer, and discovery is the only one that does.
	walkHandlers []walkHandler
	walkSeen     map[string]bool
	nextWalkID   uint64

	// Edge role.
	seeds   []peerview.Seed
	seedIdx int
	// connectedTo, grantTarget (the peer the armed grant timer waits on) and
	// started sit together because an ID is 17 bytes that align to one: the
	// three fill 40, where each on its own is padded to 24 or 8 and the
	// struct outgrows its 512-byte size class — 64 B on every idle edge.
	connectedTo ids.ID
	grantTarget ids.ID
	started     bool
	renewTimer  env.Event // the next lease request: the first, armed by Start, or a renewal
	grantTimer  env.Event
	// requestFn and timeoutFn are what those two timers run — requestLease,
	// and onLeaseTimeout for grantTarget — each bound once, on first arm, so
	// that re-arming a timer builds no closure.
	requestFn func()
	timeoutFn func()
	listeners []LeaseListener

	// Self-healing state (SelfHeal).
	alternates   []peerview.Seed // rendezvous' peerview, from the last grant
	roster       []peerview.Seed // co-clients of the lease holder, sorted by ID
	failCount    int             // unanswered lease requests in the current phase
	episodeFails int             // unanswered requests since the last grant
	awaitingSucc bool            // targeting the elected successor exclusively
	dormant      bool            // failover budget exhausted; Connect revives
	succTarget   peerview.Seed
	promoteFn    func()
	exporter     StateExporter

	// Island-merge state (IslandMerge). The rumor store accumulates every
	// rendezvous identity this peer ever learned — lease holders, grant
	// alternates, elected successors, redirect targets, client rumors —
	// and survives promotion, so a freshly promoted anchor immediately
	// tries to merge with every island it heard of as an edge.
	rumors     *peerview.RumorStore
	mergeTried map[ids.ID]time.Duration // merge-initiation dedup/backoff
	mergeFns   []func(peer ids.ID)      // merge-completion observers

	// Merges counts completed merge handshake legs at this peer.
	Merges int

	// Promotions counts edge→rendezvous role switches this service went
	// through (diagnostics; at most 1 unless the node is Reset between).
	Promotions int

	// m is the service's activity counts, behind a pointer so that the
	// struct stays in its size class; trace receives the rare protocol
	// transitions.
	m     *counts
	trace *metrics.Trace
}

// walkHandler is one SetWalkHandler registration.
type walkHandler struct {
	svc string
	h   WalkHandler
}

func newService(e env.Env, ep *endpoint.Endpoint, cfg Config) *Service {
	s := &Service{env: e, ep: ep, cfg: cfg.withDefaults(), rumors: peerview.NewRumorStore(),
		m: new(counts), trace: metrics.NewTrace(0)}
	s.leaseText = strconv.FormatInt(int64(s.cfg.LeaseDuration), 10)
	ep.Register(LeaseService, s.receiveLease)
	ep.Register(WalkService, s.receiveWalk)
	return s
}

// NewRendezvous builds the service in the rendezvous role, bound to the
// peer's peerview.
func NewRendezvous(e env.Env, ep *endpoint.Endpoint, pv *peerview.PeerView, cfg Config) *Service {
	s := newService(e, ep, cfg)
	s.pv = pv
	if s.cfg.IslandMerge {
		pv.SetMergeListener(s.onPeerviewMerge)
	}
	return s
}

// NewEdge builds the service in the edge role with the given rendezvous
// seeds (tried in order, wrapping around, on connect/failover). The edge can
// later be promoted in place (Promote).
func NewEdge(e env.Env, ep *endpoint.Endpoint, seeds []peerview.Seed, cfg Config) *Service {
	s := newService(e, ep, cfg)
	s.seeds = seeds
	return s
}

// IsRendezvous reports the current role.
func (s *Service) IsRendezvous() bool { return s.pv != nil }

// PeerView exposes the peerview (nil for edges).
func (s *Service) PeerView() *peerview.PeerView { return s.pv }

// AddLeaseListener registers an edge connectivity observer. Multiple
// listeners are supported (the discovery service and the application may
// both care about lease changes).
func (s *Service) AddLeaseListener(l LeaseListener) {
	s.listeners = append(s.listeners, l)
}

// SetPromoteHook installs the role-switch callback the successor election
// and the handoff path invoke: it must promote the owning node to the
// rendezvous role synchronously (node.Node.PromoteToRendezvous wires in
// here). Promotion is skipped when no hook is installed.
func (s *Service) SetPromoteHook(fn func()) { s.promoteFn = fn }

// SetStateExporter installs the graceful-handoff state supplier (one per
// service; discovery owns it in the assembled node).
func (s *Service) SetStateExporter(e StateExporter) { s.exporter = e }

// AddMergeListener registers a merge-completion observer (IslandMerge):
// it fires once per completed handshake leg with the counterpart's ID,
// after the peerview union. The node hooks SRDI re-replication and the
// deployment-layer OnMerge callback here.
func (s *Service) AddMergeListener(fn func(peer ids.ID)) {
	s.mergeFns = append(s.mergeFns, fn)
}

// Rumors returns the accumulated tier rumors in ascending ID order
// (diagnostics and tests).
func (s *Service) Rumors() []peerview.Rumor { return s.rumors.All() }

// learnRumor ingests one verified tier rumor: store it for onward gossip
// and, in the rendezvous role, consider probing the rumored peer.
func (s *Service) learnRumor(r peerview.Rumor) {
	if r.ID.Equal(s.ep.ID()) {
		return
	}
	s.rumors.Add(r)
	s.maybeMerge(r.Seed)
}

// selfRumor is this peer's own checksummed tier record.
func (s *Service) selfRumor() peerview.Rumor {
	return peerview.NewRumor(peerview.Seed{ID: s.ep.ID(), Addr: s.ep.Addr()})
}

// maybeMerge sends a tier probe to a rumored peer, unless it is already a
// view member or was probed recently. The probe — not a direct merge — is
// what makes *every* remembered identity a potential bridge: a rendezvous
// answers with itself, a leased edge answers with its island's anchor, and
// a dead peer answers nothing. The retry backoff is one renewal period: a
// peer that is dead or still an edge now may anchor an island later, and
// the periodic retry (retryMerges) keeps asking.
//
// sd may be a view of a loaned message; nothing here keeps it.
func (s *Service) maybeMerge(sd peerview.Seed) {
	if !s.cfg.IslandMerge || !s.IsRendezvous() || !s.started {
		return
	}
	if sd.ID.Equal(s.ep.ID()) || s.pv.Contains(sd.ID) {
		return
	}
	retry := time.Duration(float64(s.cfg.LeaseDuration) * renewFraction)
	now := s.env.Now()
	if at, tried := s.mergeTried[sd.ID]; tried && now-at < retry {
		return
	}
	s.markMergeTried(sd.ID, now)
	s.learnRoute(sd)
	m := leaseMessage(elemTierProbe, "1")
	m.AddScratch(leaseNS, elemRumor, s.selfRumor().AppendEncode(m.Scratch()))
	_ = s.sendLease(sd.ID, m)
}

// learnRoute records the route to a tier member or client. The endpoint keeps
// the address it is given and sd may have been read in place off a loaned
// message, so it is given a copy — when the route is new or has changed,
// which on a renewal it has not.
func (s *Service) learnRoute(sd peerview.Seed) {
	if sd.Addr == "" {
		return
	}
	if cur, ok := s.ep.RouteTo(sd.ID); ok && cur == sd.Addr {
		return
	}
	s.ep.AddRoute(sd.ID, sd.Clone().Addr)
}

// leaseMessage starts a pooled lease-service message with its type element;
// sendLease sends and releases it.
func leaseMessage(elem, value string) *message.Out {
	m := message.Acquire()
	m.AddString(leaseNS, elem, value)
	return m
}

// sendLease sends m to peer's lease service and releases it: the transport
// has copied it by the time Send returns.
func (s *Service) sendLease(peer ids.ID, m *message.Out) error {
	err := s.ep.Send(peer, LeaseService, &m.Message)
	m.Release()
	return err
}

// sendRedirect tells an edge to re-lease with succ.
func (s *Service) sendRedirect(edge ids.ID, succ peerview.Seed) {
	m := message.Acquire()
	m.AddScratch(leaseNS, elemRedirect, succ.AppendEncode(m.Scratch()))
	_ = s.sendLease(edge, m)
}

// retryMerges re-probes every rumored identity not yet in the view (rate
// limited per target by maybeMerge). This is the convergence engine for an
// island nobody leases with: its anchor keeps asking everyone it ever heard
// of — co-clients from old rosters included — until one of them answers or
// redirects it to a live anchor.
func (s *Service) retryMerges() {
	for _, r := range s.rumors.All() {
		s.maybeMerge(r.Seed)
	}
}

// receiveTierProbe answers a tier probe: a rendezvous names itself, an edge
// holding a lease names its anchor — redirecting the prober to this
// island's rendezvous. Either way the prober's own identity is remembered
// (and, on an edge, gossiped onward at the next renewal), so probing a
// foreign island makes this island learn the prober in return.
func (s *Service) receiveTierProbe(src ids.ID, rumor []byte) {
	if !s.started || !s.cfg.IslandMerge {
		return
	}
	prober, proberOK := peerview.ParseRumorBytes(rumor)
	if proberOK = proberOK && prober.ID.Equal(src); proberOK {
		s.learnRumor(prober)
	}
	var answer peerview.Rumor
	switch {
	case s.IsRendezvous():
		answer = s.selfRumor()
	case !s.connectedTo.IsNil():
		sd := s.tierSeed(s.connectedTo)
		if sd.Addr == "" {
			return // anchor's address unknown: nothing useful to answer
		}
		answer = peerview.NewRumor(sd)
	case s.dormant && proberOK:
		// Only rendezvous send tier probes, so this probe proves a live
		// anchor exists: treat it like a redirect and revive with a fresh
		// budget. The woken edge then gossips its old island's identities
		// to the prober on its first renewal — dormant peers are bridges
		// too, they just need waking.
		s.succTarget = prober.Seed.Clone()
		s.awaitingSucc = true
		s.failCount = 0
		s.episodeFails = 0
		s.dormant = false
		s.requestLease()
		return
	default:
		return // mid-failover edge: already looking for a lease
	}
	rsp := leaseMessage(elemTierAck, "1")
	rsp.AddScratch(leaseNS, elemRumor, answer.AppendEncode(rsp.Scratch()))
	_ = s.sendLease(src, rsp)
}

// receiveTierAck consumes a tier probe answer: an answer naming the sender
// is a confirmed live rendezvous — merge with it now; an answer naming a
// third peer is a redirect to that island's anchor — learn it and let the
// probe cycle reach it.
func (s *Service) receiveTierAck(src ids.ID, rumor []byte) {
	if !s.started || !s.cfg.IslandMerge || !s.IsRendezvous() {
		return
	}
	r, ok := peerview.ParseRumorBytes(rumor)
	if !ok || r.ID.Equal(s.ep.ID()) {
		return
	}
	s.rumors.Add(r)
	if !r.ID.Equal(src) {
		s.maybeMerge(r.Seed) // redirect: probe the named anchor next
		return
	}
	if !s.pv.Contains(r.ID) {
		s.markMergeTried(r.ID, s.env.Now())
		s.pv.Merge(r.Seed.Clone()) // the peerview routes to the address it is given
	}
}

// onPeerviewMerge completes a merge handshake leg at the rendezvous level:
// remember the counterpart for onward gossip, send it our client roster so
// both sides can reconcile duplicate leases, and notify the observers
// (SRDI re-replication, deployment hooks).
func (s *Service) onPeerviewMerge(peer ids.ID) {
	if !s.cfg.IslandMerge || !s.IsRendezvous() || !s.started {
		return
	}
	s.Merges++
	s.traceEvent("island-merge", peer)
	sd := s.tierSeed(peer)
	if sd.Addr != "" {
		s.rumors.AddSeed(sd)
	}
	s.sendMergeRoster(peer)
	for _, fn := range s.mergeFns {
		fn(peer)
	}
}

// tierSeed resolves a tier member's address from the peerview (post-merge
// the counterpart is a member) or the rumor store.
func (s *Service) tierSeed(id ids.ID) peerview.Seed {
	if s.pv != nil {
		for i := 0; i < s.pv.Size(); i++ {
			if mb := s.pv.Member(i); mb.ID.Equal(id) {
				return mb
			}
		}
	}
	for _, r := range s.rumors.All() {
		if r.ID.Equal(id) {
			return r.Seed
		}
	}
	return peerview.Seed{ID: id}
}

// sendMergeRoster ships this rendezvous' fresh client roster to the merge
// counterpart for duplicate-lease reconciliation.
func (s *Service) sendMergeRoster(peer ids.ID) {
	m := leaseMessage(elemMergeRst, "1")
	n := 0
	now := s.env.Now()
	for _, id := range s.Clients() {
		cl := s.clients[id]
		if cl.addr == "" || cl.expires <= now || id.Equal(peer) {
			continue
		}
		m.AddScratch(leaseNS, elemClient, peerview.Seed{ID: id, Addr: transport.Addr(cl.addr)}.AppendEncode(m.Scratch()))
		n++
	}
	if n == 0 {
		m.Release()
		return // nothing to reconcile from this side
	}
	_ = s.sendLease(peer, m)
}

// receiveMergeRoster reconciles duplicate client leases after a merge: for
// every client leased at both rendezvous, the lowest-ID rendezvous wins —
// the higher-ID one drops its (possibly stale, adopted) entry and redirects
// the client to the winner, exactly the mechanism a graceful handoff uses.
// Each side handles only its own losing case; the winner keeps serving.
func (s *Service) receiveMergeRoster(src ids.ID, m *message.Message) {
	if !s.started || !s.cfg.IslandMerge || !s.IsRendezvous() {
		return
	}
	iLose := src.Less(s.ep.ID())
	now := s.env.Now()
	winner := s.tierSeed(src)
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS || el.Name != elemClient {
			continue
		}
		sd, ok := peerview.ParseSeedBytes(el.Data)
		if !ok || sd.ID.Equal(s.ep.ID()) {
			continue
		}
		cl, dup := s.clients[sd.ID]
		if !dup || cl.expires <= now {
			continue
		}
		if !iLose {
			continue // the counterpart drops and redirects when it sees our roster
		}
		delete(s.clients, sd.ID)
		s.learnRoute(peerview.Seed{ID: sd.ID, Addr: transport.Addr(cl.addr)})
		s.sendRedirect(sd.ID, winner)
	}
}

// markMergeTried stamps a merge initiation toward peer.
func (s *Service) markMergeTried(peer ids.ID, at time.Duration) {
	if s.mergeTried == nil {
		s.mergeTried = make(map[ids.ID]time.Duration)
	}
	s.mergeTried[peer] = at
}

// setClient grants or refreshes edge's lease in the client table, which
// keeps cl.addr: the caller passes a string of its own, not a view.
func (s *Service) setClient(edge ids.ID, cl clientLease) {
	if s.clients == nil {
		s.clients = make(map[ids.ID]clientLease)
	}
	s.clients[edge] = cl
}

// SetWalkHandler installs the per-hop consumer for walked messages addressed
// to the given target service (rendezvous role). Each service owning a walk
// protocol — discovery's LC-DHT fallback — registers its own handler; the walk envelope's Svc element selects it at
// every hop. Handlers may be installed while the peer is still an edge;
// they only run once it holds the rendezvous role.
func (s *Service) SetWalkHandler(svc string, h WalkHandler) {
	for i := range s.walkHandlers {
		if s.walkHandlers[i].svc == svc {
			s.walkHandlers[i].h = h
			return
		}
	}
	s.walkHandlers = append(s.walkHandlers, walkHandler{svc: svc, h: h})
}

// walkHandlerFor returns the handler registered for svc, or nil.
func (s *Service) walkHandlerFor(svc string) WalkHandler {
	for _, wh := range s.walkHandlers {
		if wh.svc == svc {
			return wh.h
		}
	}
	return nil
}

// Promote switches an edge-role service to the rendezvous role in place,
// adopting the given (freshly built) peerview: edge lease timers are
// canceled, the lease connection is dropped and the client sweep starts if
// the service is running. The endpoint services and walk handlers were
// registered at construction, so after Promote the peer grants leases,
// relays walks and joins the peerview gossip immediately.
func (s *Service) Promote(pv *peerview.PeerView) {
	if s.IsRendezvous() || pv == nil {
		return
	}
	s.cancelTimers()
	s.awaitingSucc = false
	s.dormant = false
	s.failCount = 0
	s.episodeFails = 0
	if !s.connectedTo.IsNil() {
		s.setConnected(ids.Nil)
	}
	s.pv = pv
	s.Promotions++
	s.traceEvent("promotion", ids.Nil)
	if s.started {
		s.clientSweep = env.NewTicker(s.env, s.cfg.LeaseDuration/4, s.sweepClients)
	}
	if s.cfg.IslandMerge {
		pv.SetMergeListener(s.onPeerviewMerge)
		// Everything this peer heard of as an edge is a merge candidate
		// now: a promoted anchor that once contacted another island (or an
		// elected successor that promoted elsewhere) bridges immediately.
		for _, r := range s.rumors.All() {
			s.maybeMerge(r.Seed)
		}
	}
}

// AdoptClients imports a client roster into the lease table (successor
// takeover after a crash): each client is granted an implicit lease so
// propagation fan-out reaches it before it re-leases explicitly.
func (s *Service) AdoptClients(roster []peerview.Seed, dur time.Duration) {
	if !s.IsRendezvous() {
		return
	}
	if dur <= 0 {
		dur = s.cfg.LeaseDuration
	}
	for _, c := range roster {
		if c.ID.Equal(s.ep.ID()) {
			continue
		}
		s.learnRoute(c)
		s.setClient(c.ID, clientLease{expires: s.env.Now() + dur, addr: string(c.Addr)})
		if s.cfg.IslandMerge {
			s.rumors.AddSeed(c)
		}
	}
}

// Alternates returns the rendezvous peerview members learned from the last
// lease grant (SelfHeal) — the seed set a promoted edge re-joins the
// rendezvous network with.
func (s *Service) Alternates() []peerview.Seed {
	out := make([]peerview.Seed, len(s.alternates))
	copy(out, s.alternates)
	return out
}

// Roster returns the last-known co-client roster (SelfHeal), sorted by ID.
func (s *Service) Roster() []peerview.Seed {
	out := make([]peerview.Seed, len(s.roster))
	copy(out, s.roster)
	return out
}

// Dormant reports whether the edge exhausted its failover budget and went
// quiet (no candidate answered and no heal path applied). Connect revives.
func (s *Service) Dormant() bool { return s.dormant }

// Start begins the role's periodic work: client sweeping for rendezvous,
// lease acquisition for edges.
func (s *Service) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.IsRendezvous() {
		s.clientSweep = env.NewTicker(s.env, s.cfg.LeaseDuration/4, s.sweepClients)
		return
	}
	s.renewTimer = s.requestAfter(0)
}

// requestAfter arms a timer that asks for a lease: the first request, and
// every renewal. requestLease itself ignores a stopped service.
func (s *Service) requestAfter(d time.Duration) env.Event {
	if s.requestFn == nil {
		s.requestFn = s.requestLease
	}
	return s.env.After(d, s.requestFn)
}

// Stop halts periodic work gracefully: every timer is canceled, an edge
// cancels its lease with the rendezvous before disconnecting, and a
// self-healing rendezvous hands its lease table (and exported service
// state) off to a successor before going silent.
func (s *Service) Stop() { s.halt(true) }

// Abort is the crash-path Stop: identical teardown, but nothing is sent —
// the rendezvous discovers the departure by lease expiry, exactly as a real
// testbed peer failure looks from outside.
func (s *Service) Abort() { s.halt(false) }

func (s *Service) halt(sendCancel bool) {
	if !s.started {
		return
	}
	s.started = false
	if sendCancel && s.cfg.SelfHeal && s.IsRendezvous() && len(s.clients) > 0 {
		s.handoff()
	}
	if s.clientSweep != nil {
		s.clientSweep.Stop()
		s.clientSweep = nil
	}
	s.cancelTimers()
	if !s.connectedTo.IsNil() {
		if sendCancel {
			_ = s.sendLease(s.connectedTo, leaseMessage(elemCancelled, "1"))
		}
		s.setConnected(ids.Nil)
	}
}

func (s *Service) cancelTimers() {
	s.renewTimer.Cancel()
	s.grantTimer.Cancel()
	s.grantTimer = env.Event{} // Quiescent: no attempt in flight
}

// Reset clears the role's soft state for a cold restart: granted leases, the
// walk-dedup set and the learned self-healing snapshots are dropped and the
// edge's seed rotation rewinds to the first seed. The role itself is kept —
// a promoted peer restarts as a rendezvous. Walk instance IDs keep
// increasing — other peers' dedup sets may remember this peer's pre-restart
// walks.
func (s *Service) Reset() {
	s.clients = nil
	s.walkSeen = nil
	s.seedIdx = 0
	s.failCount = 0
	s.episodeFails = 0
	s.awaitingSucc = false
	s.succTarget = peerview.Seed{}
	s.dormant = false
	s.alternates = nil
	s.roster = nil
	s.rumors = peerview.NewRumorStore()
	s.mergeTried = nil
}

// Quiescent reports whether the service is idle: edge role, no lease
// attempt in flight (the armed renewal timer is the wake source, not a
// blocker), and every map empty. Dormant edges qualify.
func (s *Service) Quiescent() bool {
	return !s.IsRendezvous() && s.grantTimer == (env.Event{}) && !s.awaitingSucc &&
		len(s.clients) == 0 && len(s.walkSeen) == 0 && len(s.mergeTried) == 0
}

// --- Edge side: lease acquisition and renewal ---

// AddSeed appends a rendezvous seed at runtime (live joins that discovered
// the seed's ID via the endpoint hello).
func (s *Service) AddSeed(seed peerview.Seed) {
	s.seeds = append(s.seeds, seed)
}

// Connect (edge role) triggers an immediate lease request, e.g. after a
// late AddSeed on an already-started service. It also revives a dormant
// edge with a fresh failover budget.
func (s *Service) Connect() {
	if s.started && !s.IsRendezvous() {
		s.dormant = false
		s.awaitingSucc = false
		s.failCount = 0
		s.episodeFails = 0
		s.requestLease()
	}
}

// ConnectedRdv returns the rendezvous currently holding this edge's lease.
func (s *Service) ConnectedRdv() (ids.ID, bool) {
	return s.connectedTo, !s.connectedTo.IsNil()
}

func (s *Service) setConnected(rdv ids.ID) {
	if s.connectedTo.Equal(rdv) {
		return
	}
	old := s.connectedTo
	s.connectedTo = rdv
	if !old.IsNil() {
		s.traceEvent("lease-lost", old)
	}
	if !rdv.IsNil() {
		s.traceEvent("lease-acquired", rdv)
	}
	for _, l := range s.listeners {
		if !old.IsNil() {
			l(old, false)
		}
		if !rdv.IsNil() {
			l(rdv, true)
		}
	}
}

// The edge's failover rotation is the configured seeds followed by the
// alternates learned from lease grants (the peerview fallback) that are not
// seeds themselves. It is read where it lies: a request builds no list.

func (s *Service) isSeed(id ids.ID) bool {
	for _, sd := range s.seeds {
		if sd.ID.Equal(id) {
			return true
		}
	}
	return false
}

// candidateAt returns entry i of the rotation, wrapping around; false when
// the rotation is empty.
func (s *Service) candidateAt(i int) (peerview.Seed, bool) {
	n := len(s.seeds)
	for _, alt := range s.alternates {
		if !s.isSeed(alt.ID) {
			n++
		}
	}
	if n == 0 {
		return peerview.Seed{}, false
	}
	if i %= n; i < len(s.seeds) {
		return s.seeds[i], true
	}
	i -= len(s.seeds)
	for _, alt := range s.alternates {
		if s.isSeed(alt.ID) {
			continue
		}
		if i == 0 {
			return alt, true
		}
		i--
	}
	return peerview.Seed{}, false // unreachable: i < n
}

// candidate returns the rotation's entry for id, or the bare ID when the
// rotation no longer lists it.
func (s *Service) candidate(id ids.ID) peerview.Seed {
	for _, list := range [2][]peerview.Seed{s.seeds, s.alternates} {
		for _, c := range list {
			if c.ID.Equal(id) {
				return c
			}
		}
	}
	return peerview.Seed{ID: id}
}

// requestLease asks the current candidate for a lease and arms the failover
// timer.
func (s *Service) requestLease() {
	if !s.started || s.IsRendezvous() || s.dormant {
		return
	}
	var target peerview.Seed
	switch {
	case s.awaitingSucc:
		target = s.succTarget
	case !s.connectedTo.IsNil():
		// Renewal: stick with the current lease holder regardless of how
		// the candidate rotation shifted as alternates were learned.
		target = s.candidate(s.connectedTo)
	default:
		var ok bool
		if target, ok = s.candidateAt(s.seedIdx); !ok {
			return
		}
	}
	s.learnRoute(target)
	// A still-armed grant timer belongs to a superseded request (Connect
	// during an in-flight attempt): cancel it, or its orphaned timeout
	// would later tear down whatever lease this request establishes.
	s.grantTimer.Cancel()
	m := leaseMessage(elemRequest, s.leaseText)
	if s.cfg.SelfHeal {
		// Share our address so the rendezvous can roster us to co-clients.
		m.AddString(leaseNS, elemAddr, string(s.ep.Addr()))
	}
	if s.cfg.IslandMerge {
		// Piggyback a rotating window of the tier identities we remember:
		// the request is the edge→rendezvous gossip channel that bridges
		// islands, and rotation guarantees every stored identity — however
		// large the store grew — reaches the rendezvous eventually.
		head, wrapped := s.rumors.NextWindow(maxRumors)
		for _, run := range [2][]peerview.Rumor{head, wrapped} {
			for _, r := range run {
				if r.ID.Equal(target.ID) {
					continue // the target knows itself
				}
				m.AddScratch(leaseNS, elemRumor, r.AppendEncode(m.Scratch()))
			}
		}
	}
	err := s.sendLease(target.ID, m)
	s.m.requests++
	delay := s.cfg.ResponseTimeout
	if s.awaitingSucc {
		// The elected successor may detect the failure minutes after us
		// (renewal schedules differ); back off instead of burning the
		// budget before it even promotes.
		shift := s.failCount
		if shift > 3 {
			shift = 3
		}
		delay <<= uint(shift)
	}
	if s.timeoutFn == nil {
		s.timeoutFn = func() { s.onLeaseTimeout(s.grantTarget) }
	}
	s.grantTarget = target.ID
	s.grantTimer = s.env.After(delay, s.timeoutFn)
	if err != nil {
		// Send failed outright; the timer will advance to the next seed.
		return
	}
}

// episodePhases bounds the total attempts of one disconnected episode, in
// units of FailoverAttempts: the initial candidate rotation plus a handful
// of elected-successor waits with rotation fallbacks in between. Past it
// the edge goes dormant no matter what — retries are hard-bounded.
const episodePhases = 8

// onLeaseTimeout fires when no grant arrived: the candidate is presumed
// dead. Drop the stale connection (if this was a renewal), rotate to the
// next candidate while the phase budget lasts, then heal — an exhausted
// successor wait prunes the dead successor from the roster and falls back
// to the rotation, so the next election picks the next candidate — or go
// dormant once the episode budget is gone. It needs no check that the
// timer is still current: receiveGrant cancels it under the same
// serialization, and a canceled env timer never runs, live or simulated.
func (s *Service) onLeaseTimeout(target ids.ID) {
	s.grantTimer = env.Event{}
	s.m.timeouts++
	s.traceEvent("lease-timeout", target)
	if s.connectedTo.Equal(target) {
		s.setConnected(ids.Nil)
	}
	s.seedIdx++
	s.failCount++
	s.episodeFails++
	if s.episodeFails >= s.cfg.FailoverAttempts*episodePhases {
		s.awaitingSucc = false
		s.dormant = true // hard stop; Connect revives with a fresh budget
		s.traceEvent("dormant", ids.Nil)
		return
	}
	if s.failCount < s.cfg.FailoverAttempts {
		s.requestLease()
		return
	}
	if s.awaitingSucc {
		// The elected successor never answered: it is dead too. Strike it
		// from the roster and fall back to the normal rotation (the
		// alternates may hold live rendezvous); when that exhausts, the
		// next election picks the next-best candidate — possibly us.
		s.awaitingSucc = false
		s.dropFromRoster(s.succTarget.ID)
		s.failCount = 0
		s.requestLease()
		return
	}
	s.electAndHeal()
}

// dropFromRoster removes a peer that failed to answer from the election
// candidate set.
func (s *Service) dropFromRoster(id ids.ID) {
	kept := s.roster[:0]
	for _, c := range s.roster {
		if !c.ID.Equal(id) {
			kept = append(kept, c)
		}
	}
	s.roster = kept
}

// electAndHeal runs the deterministic successor election over the last
// known client roster once every candidate stopped answering. The elected
// client promotes itself; everyone else re-targets it exclusively (with a
// second, backed-off attempt budget). Without SelfHeal — or without a
// roster to elect from — the edge goes dormant: retries are bounded.
func (s *Service) electAndHeal() {
	if !s.cfg.SelfHeal || len(s.roster) == 0 {
		s.dormant = true
		s.traceEvent("dormant", ids.Nil)
		return
	}
	succ := pickSuccessor(s.roster)
	s.m.elections++
	s.traceEvent("election", succ.ID)
	if succ.ID.Equal(s.ep.ID()) {
		if s.promoteFn == nil {
			s.dormant = true
			return
		}
		roster := s.Roster()
		s.promoteFn() // synchronous node-level role swap
		// Adopt the co-clients we knew: they are about to re-lease here.
		s.AdoptClients(roster, 0)
		return
	}
	s.succTarget = succ
	s.awaitingSucc = true
	s.failCount = 0
	if s.cfg.IslandMerge {
		// The elected successor is a promoted-tier identity worth gossiping
		// even if it never answers us: another island may reach it.
		s.rumors.AddSeed(succ)
	}
	s.requestLease()
}

// pickSuccessor elects the successor from an ID-sorted client roster: the
// lowest ID, mirroring the peerview's ID-order bias. Every client applies the
// same rule over (a snapshot of) the same roster, so the election needs no
// extra messages and is deterministic under a fixed seed.
func pickSuccessor(roster []peerview.Seed) peerview.Seed {
	return roster[0]
}

// --- Rendezvous side ---

// Clients returns the edges currently holding leases, in ascending ID order
// so fan-out paths (handoff, propagation) stay deterministic under a fixed
// seed.
func (s *Service) Clients() []ids.ID {
	out := make([]ids.ID, 0, len(s.clients))
	for id := range s.clients {
		out = append(out, id)
	}
	ids.SortIDs(out)
	return out
}

// HasClient reports whether the edge currently leases here.
func (s *Service) HasClient(edge ids.ID) bool {
	cl, ok := s.clients[edge]
	return ok && cl.expires > s.env.Now()
}

func (s *Service) sweepClients() {
	now := s.env.Now()
	for id, cl := range s.clients {
		if cl.expires <= now {
			delete(s.clients, id)
			s.m.expired++
		}
	}
	if s.cfg.IslandMerge {
		evicted := s.rumors.Sweep(rumorDeadSweeps, func(id ids.ID) bool {
			return id.Equal(s.ep.ID()) || s.pv.Contains(id) || s.HasClient(id)
		})
		s.m.rumorEvicts += uint64(evicted)
		s.retryMerges()
	}
}

// appendGrantState attaches the self-healing snapshots to a lease grant:
// up to maxAlternates peerview members and up to maxRoster client roster
// entries (clients that shared an address), both in ascending ID order.
func (s *Service) appendGrantState(m *message.Out) {
	for i := 0; i < s.pv.Size() && i < maxAlternates; i++ {
		m.AddScratch(leaseNS, elemAlt, s.pv.Member(i).AppendEncode(m.Scratch()))
	}
	var buf [maxRoster]peerview.Seed
	for _, c := range s.grantRoster(&buf) {
		m.AddScratch(leaseNS, elemClient, c.AppendEncode(m.Scratch()))
	}
}

// grantRoster selects into buf the maxRoster lowest-ID clients a grant may
// roster, in ascending ID order, by inserting each into a short sorted run:
// no list of the whole table is built or sorted. Expired leases linger until
// the next sweep; rostering a dead client could make every elector
// unanimously pick a dead successor, so only fresh leases qualify.
func (s *Service) grantRoster(buf *[maxRoster]peerview.Seed) []peerview.Seed {
	out := buf[:0]
	now := s.env.Now()
	for id, cl := range s.clients {
		if cl.addr == "" || cl.expires <= now {
			continue
		}
		i := len(out)
		if i < len(buf) {
			out = out[:i+1]
		} else if i--; !id.Less(out[i].ID) {
			continue // the run is full of lower IDs
		}
		for ; i > 0 && id.Less(out[i-1].ID); i-- {
			out[i] = out[i-1]
		}
		out[i] = peerview.Seed{ID: id, Addr: transport.Addr(cl.addr)}
	}
	return out
}

// appendGrantRumors attaches tier rumors to a lease grant (IslandMerge):
// this rendezvous itself, its current peerview members, and the rumor
// store, deduplicated in that order and capped at maxRumors — the
// rendezvous→edge half of the island gossip.
func (s *Service) appendGrantRumors(m *message.Out, src ids.ID) {
	var sent [maxRumors]ids.ID
	n := 0
	emit := func(sd peerview.Seed) {
		if n >= maxRumors || sd.Addr == "" || sd.ID.Equal(src) {
			return
		}
		for _, id := range sent[:n] {
			if id.Equal(sd.ID) {
				return
			}
		}
		sent[n] = sd.ID
		n++
		m.AddScratch(leaseNS, elemRumor, peerview.NewRumor(sd).AppendEncode(m.Scratch()))
	}
	emit(peerview.Seed{ID: s.ep.ID(), Addr: s.ep.Addr()})
	if s.pv != nil {
		for i := 0; i < s.pv.Size(); i++ {
			emit(s.pv.Member(i))
		}
	}
	// Draw only the budget that is left after self + members, so the
	// window cursor advances by what was actually consumed and the store's
	// tail still circulates on later grants (drawing a full window here
	// would pin small stores to the same ID-order prefix forever).
	head, wrapped := s.rumors.NextWindow(maxRumors - n)
	for _, run := range [2][]peerview.Rumor{head, wrapped} {
		for _, r := range run {
			emit(r.Seed)
		}
	}
}

// learnGrantState ingests the snapshots a self-healing grant carries. The
// grant is authoritative: one that carries alternates or a roster replaces
// both lists, one that carries neither leaves both. Every record is read in
// place and compared with the entry the last grant left at its position, so
// a grant that repeats the last one — a renewal's nearly always does — is
// learned without copying anything.
func (s *Service) learnGrantState(m *message.Message) {
	alts, roster := 0, 0
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS {
			continue
		}
		switch el.Name {
		case elemAlt:
			if sd, ok := peerview.ParseSeedBytes(el.Data); ok {
				s.alternates = setSeedAt(s.alternates, alts, sd)
				alts++
				if s.cfg.IslandMerge {
					s.rumors.AddSeed(sd) // alternates are tier identities too
				}
			}
		case elemClient:
			if sd, ok := peerview.ParseSeedBytes(el.Data); ok {
				s.roster = setSeedAt(s.roster, roster, sd)
				roster++
				if s.cfg.IslandMerge && !sd.ID.Equal(s.ep.ID()) {
					// Co-clients are bridge pointers: any of them may end
					// up (or already be) inside another island, and a tier
					// probe to it redirects us to that island's anchor.
					s.rumors.AddSeed(sd)
				}
			}
		case elemRumor:
			if !s.cfg.IslandMerge {
				continue
			}
			if r, ok := peerview.ParseRumorBytes(el.Data); ok && !r.ID.Equal(s.ep.ID()) {
				s.rumors.Add(r)
			}
		}
	}
	if alts > 0 || roster > 0 {
		s.alternates = s.alternates[:alts]
		s.roster = s.roster[:roster]
	}
}

// setSeedAt makes sd entry i of list, 0 ≤ i ≤ len(list), reusing the backing
// array. sd is a view of a loaned message: the entry already there is kept
// when it reads the same, and otherwise gets an address of its own.
func setSeedAt(list []peerview.Seed, i int, sd peerview.Seed) []peerview.Seed {
	if i == len(list) {
		return append(list, sd.Clone())
	}
	if list[i] != sd {
		list[i] = sd.Clone()
	}
	return list
}

// handoff transfers this gracefully stopping rendezvous' responsibilities:
// the client lease table (and exported service state, e.g. the SRDI index)
// go to a successor — the upper peerview neighbour when one exists, the
// elected client otherwise — and every other client is redirected to it.
func (s *Service) handoff() {
	succ, ok := s.chooseHandoffSuccessor()
	if !ok {
		return
	}
	s.learnRoute(succ)
	// 1. The lease table. An edge successor promotes itself on receipt.
	hm := leaseMessage(elemHandoff, "1")
	now := s.env.Now()
	for _, id := range s.Clients() {
		cl := s.clients[id]
		if cl.addr == "" || id.Equal(succ.ID) {
			continue
		}
		remaining := cl.expires - now
		if remaining <= 0 {
			continue
		}
		rec := peerview.Seed{ID: id, Addr: transport.Addr(cl.addr)}.AppendEncode(hm.Scratch())
		hm.AddScratch(leaseNS, elemClient, strconv.AppendInt(append(rec, ' '), int64(remaining), 10))
	}
	_ = s.sendLease(succ.ID, hm)
	s.m.handoffs++
	s.traceEvent("handoff", succ.ID)
	// 2. Exported service state (the SRDI index re-publish).
	if s.exporter != nil {
		if svc, msgs := s.exporter(); svc != "" {
			for _, em := range msgs {
				_ = s.ep.Send(succ.ID, svc, em)
			}
		}
	}
	// 3. Redirect the remaining fresh clients to the successor.
	for _, id := range s.Clients() {
		if id.Equal(succ.ID) || s.clients[id].expires <= now {
			continue
		}
		s.sendRedirect(id, succ)
	}
}

// chooseHandoffSuccessor prefers a live peerview member (the upper
// neighbour, wrapping to the lower) — already a rendezvous, no promotion
// needed — and falls back to electing one of the fresh clients (expired
// leases may belong to dead peers).
func (s *Service) chooseHandoffSuccessor() (succ peerview.Seed, ok bool) {
	lower, upper := s.pv.Neighbors()
	want := upper
	if want.IsNil() {
		want = lower
	}
	if !want.IsNil() {
		for i := 0; i < s.pv.Size(); i++ {
			if member := s.pv.Member(i); member.ID.Equal(want) {
				return member, true
			}
		}
	}
	var roster []peerview.Seed
	now := s.env.Now()
	for _, id := range s.Clients() {
		if cl := s.clients[id]; cl.addr != "" && cl.expires > now {
			roster = append(roster, peerview.Seed{ID: id, Addr: transport.Addr(cl.addr)})
		}
	}
	if len(roster) == 0 {
		return peerview.Seed{}, false
	}
	return pickSuccessor(roster), true
}

// leaseHeader is the first lease: element of each name receiveLease decides
// on, read in place: the slices alias the message's payloads.
type leaseHeader struct {
	// The type elements, in the order receiveLease tries them.
	request, cancel, handoff, mergeRst, probe, ack, redirect, granted []byte
	// What a request, and a tier probe or ack, carries besides.
	addr, rumor []byte
}

func readLeaseHeader(m *message.Message) (h leaseHeader) {
	m.Read(leaseNS,
		message.Field{Name: elemRequest, Into: &h.request},
		message.Field{Name: elemCancelled, Into: &h.cancel},
		message.Field{Name: elemHandoff, Into: &h.handoff},
		message.Field{Name: elemMergeRst, Into: &h.mergeRst},
		message.Field{Name: elemTierProbe, Into: &h.probe},
		message.Field{Name: elemTierAck, Into: &h.ack},
		message.Field{Name: elemRedirect, Into: &h.redirect},
		message.Field{Name: elemGranted, Into: &h.granted},
		message.Field{Name: elemAddr, Into: &h.addr},
		message.Field{Name: elemRumor, Into: &h.rumor})
	return h
}

// receiveLease handles both sides of the lease protocol. What kind of
// message this is is the first non-empty type element in the order below.
// Grant and renewal processing is gated on the running state — a stopped
// peer must neither serve leases nor arm a renewal timer off a late grant
// (the leak-free teardown contract); only the state-shedding Cancel branch
// always runs.
func (s *Service) receiveLease(src ids.ID, m *message.Message) {
	h := readLeaseHeader(m)
	switch {
	case len(h.request) != 0:
		s.receiveRequest(src, h.request, h.addr, m)
	case len(h.cancel) != 0:
		if _, held := s.clients[src]; held {
			s.m.cancelled++
		}
		delete(s.clients, src)
	case len(h.handoff) != 0:
		s.receiveHandoff(m)
	case len(h.mergeRst) != 0:
		s.receiveMergeRoster(src, m)
	case len(h.probe) != 0:
		s.receiveTierProbe(src, h.rumor)
	case len(h.ack) != 0:
		s.receiveTierAck(src, h.rumor)
	case len(h.redirect) != 0:
		s.receiveRedirect(src, h.redirect)
	case len(h.granted) != 0:
		s.receiveGrant(src, h.granted, m)
	}
}

// receiveRequest grants or renews src's lease (rendezvous role).
func (s *Service) receiveRequest(src ids.ID, asked, edgeAddr []byte, m *message.Message) {
	if !s.started || !s.IsRendezvous() {
		return // edges and stopped peers do not grant leases
	}
	dur := s.cfg.LeaseDuration
	if v, err := strconv.ParseInt(string(asked), 10, 64); err == nil && v > 0 && time.Duration(v) < dur {
		dur = time.Duration(v)
	}
	old, renewal := s.clients[src]
	if renewal {
		s.m.renewed++
	} else {
		s.m.granted++
	}
	addr := old.addr // a renewing client's address is the string on file
	if addr != string(edgeAddr) {
		addr = string(edgeAddr)
	}
	s.setClient(src, clientLease{expires: s.env.Now() + dur, addr: addr})
	if s.cfg.IslandMerge {
		for _, el := range m.Elements() {
			if el.Namespace != leaseNS || el.Name != elemRumor {
				continue
			}
			if r, ok := peerview.ParseRumorBytes(el.Data); ok {
				s.learnRumor(r)
			}
		}
	}
	rsp := message.Acquire()
	if dur == s.cfg.LeaseDuration {
		rsp.AddString(leaseNS, elemGranted, s.leaseText)
	} else {
		rsp.AddScratch(leaseNS, elemGranted, strconv.AppendInt(rsp.Scratch(), int64(dur), 10))
	}
	if s.cfg.SelfHeal {
		s.appendGrantState(rsp)
	}
	if s.cfg.IslandMerge {
		s.appendGrantRumors(rsp, src)
	}
	_ = s.sendLease(src, rsp)
}

// receiveGrant takes up the lease src granted and arms its renewal (edge
// role).
func (s *Service) receiveGrant(src ids.ID, granted []byte, m *message.Message) {
	if !s.started || s.IsRendezvous() {
		return // grant raced our Stop or promotion: arm nothing
	}
	v, err := strconv.ParseInt(string(granted), 10, 64)
	if err != nil || v <= 0 {
		return
	}
	// A rendezvous grants what was asked for or less; one that promises more
	// does not get to keep this edge from renewing on its own schedule.
	dur := min(time.Duration(v), s.cfg.LeaseDuration)
	s.grantTimer.Cancel()
	s.grantTimer = env.Event{}
	s.failCount = 0
	s.episodeFails = 0
	s.awaitingSucc = false
	s.dormant = false
	s.setConnected(src)
	s.learnGrantState(m)
	s.renewTimer.Cancel()
	s.renewTimer = s.requestAfter(time.Duration(float64(dur) * renewFraction))
}

// receiveHandoff imports a predecessor's lease table. An edge promotes
// itself first (the gracefully stopping rendezvous elected us successor).
func (s *Service) receiveHandoff(m *message.Message) {
	if !s.started || !s.cfg.SelfHeal {
		return
	}
	if !s.IsRendezvous() {
		if s.promoteFn == nil {
			return
		}
		s.promoteFn()
		if !s.IsRendezvous() {
			return
		}
	}
	now := s.env.Now()
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS || el.Name != elemClient {
			continue
		}
		sd, left, ok := peerview.ParseRecordBytes(el.Data)
		if !ok || sd.ID.Equal(s.ep.ID()) {
			continue
		}
		remaining, err := strconv.ParseInt(string(left), 10, 64)
		if err != nil || remaining <= 0 {
			continue
		}
		// What is left of a lease is no more than a whole one.
		remaining = min(remaining, int64(s.cfg.LeaseDuration))
		s.learnRoute(sd)
		s.setClient(sd.ID, clientLease{
			expires: now + time.Duration(remaining),
			addr:    string(sd.Clone().Addr),
		})
	}
}

// receiveRedirect re-targets this edge's lease at the successor a
// gracefully stopping rendezvous (SelfHeal) or a merge reconciliation
// loser (IslandMerge) named — accepted whenever either machinery that can
// send redirects is enabled.
func (s *Service) receiveRedirect(src ids.ID, val []byte) {
	if !s.started || !(s.cfg.SelfHeal || s.cfg.IslandMerge) || s.IsRendezvous() {
		return
	}
	succ, ok := peerview.ParseSeedBytes(val)
	if !ok || succ.ID.Equal(s.ep.ID()) {
		return
	}
	s.cancelTimers()
	s.m.redirects++
	s.traceEvent("redirect", succ.ID)
	if s.connectedTo.Equal(src) {
		s.setConnected(ids.Nil)
	}
	s.succTarget = succ.Clone()
	s.awaitingSucc = true
	s.failCount = 0
	s.dormant = false
	if s.cfg.IslandMerge {
		s.rumors.AddSeed(succ)
	}
	s.requestLease()
}

// --- Propagation protocol: the directional walker ---

// Walk sends body to the walk handler of up to ttl successive rendezvous
// peers in the given direction along this peer's view of the ID order. The
// local peer is not visited. Rendezvous role only.
func (s *Service) Walk(dir Direction, ttl int, svc string, body *message.Message) {
	if !s.IsRendezvous() || ttl <= 0 {
		return
	}
	s.m.walks++
	lower, upper := s.pv.Neighbors()
	next := upper
	if dir == Down {
		next = lower
	}
	if next.IsNil() {
		return
	}
	s.nextWalkID++
	m := message.Acquire()
	m.AddString(walkNS, elemDir, dir.String())
	m.AddScratch(walkNS, elemTTL, strconv.AppendInt(m.Scratch(), int64(ttl), 10))
	m.AddString(walkNS, elemSvc, svc)
	m.AddString(walkNS, elemOrigin, s.ep.IDString())
	wid := append(s.ep.ID().AppendShort(m.Scratch()), '-')
	m.AddScratch(walkNS, elemWalkID, strconv.AppendUint(wid, s.nextWalkID, 10))
	// The body travels as an embedded frame, rendered into the scratch.
	m.AddScratch(walkNS, elemPayload, body.AppendMarshal(m.Scratch()))
	_ = s.ep.Send(next, WalkService, &m.Message)
	m.Release()
}

// walkHeader is the walk: elements of a walk message, read in place: the
// slices alias the message's payloads.
type walkHeader struct {
	dir, ttl, svc, origin, wid, payload []byte
	hasPayload                          bool
}

func readWalkHeader(m *message.Message) (h walkHeader) {
	present := m.Read(walkNS,
		message.Field{Name: elemPayload, Into: &h.payload},
		message.Field{Name: elemDir, Into: &h.dir},
		message.Field{Name: elemTTL, Into: &h.ttl},
		message.Field{Name: elemSvc, Into: &h.svc},
		message.Field{Name: elemOrigin, Into: &h.origin},
		message.Field{Name: elemWalkID, Into: &h.wid})
	h.hasPayload = present&1 != 0 // the first field
	return h
}

// walkSeenLimit bounds the walk dedup set; walks are short-lived, so a
// coarse reset is fine.
const walkSeenLimit = 8192

// receiveWalk consumes a walked message: hand it to the walk handler, then
// forward along the same direction using *this* peer's peerview (each hop
// re-reads its own view, exactly how the LC-DHT fallback walks a partially
// consistent overlay). The header is read as bytes and the embedded body is
// decoded in place into a pooled message, so a relayed hop costs its dedup
// key and nothing else here.
func (s *Service) receiveWalk(src ids.ID, m *message.Message) {
	if !s.started || !s.IsRendezvous() {
		return // stopped peers and edges do not relay walks
	}
	h := readWalkHeader(m)
	ttl, err := strconv.Atoi(string(h.ttl))
	if err != nil || ttl <= 0 {
		return
	}
	if len(h.wid) == 0 || s.walkSeen[string(h.wid)] {
		return // loop guard on inconsistent views
	}
	if s.walkSeen == nil {
		s.walkSeen = make(map[string]bool)
	}
	s.walkSeen[string(h.wid)] = true
	if len(s.walkSeen) > walkSeenLimit {
		s.walkSeen = nil
	}
	originID, err := ids.ParseBytes(h.origin)
	if err != nil || !h.hasPayload {
		return
	}
	dir := Up
	if string(h.dir) == Down.String() {
		dir = Down
	}
	body := message.Acquire()
	if err := body.UnmarshalAlias(h.payload); err != nil {
		body.Release()
		return
	}
	handle := s.walkHandlerFor(string(h.svc))
	stop := handle != nil && handle(originID, dir, &body.Message)
	body.Release() // the loan ends here: see WalkHandler
	if stop || ttl <= 1 {
		return
	}
	lower, upper := s.pv.Neighbors()
	next := upper
	if dir == Down {
		next = lower
	}
	if next.IsNil() || next.Equal(src) {
		return
	}
	// Re-wrap preserving the original origin and walk ID.
	fwd := message.Acquire()
	fwd.AddString(walkNS, elemDir, dir.String())
	fwd.AddScratch(walkNS, elemTTL, strconv.AppendInt(fwd.Scratch(), int64(ttl-1), 10))
	fwd.Add(walkNS, elemSvc, h.svc)
	fwd.AddScratch(walkNS, elemOrigin, originID.AppendString(fwd.Scratch()))
	fwd.Add(walkNS, elemWalkID, h.wid)
	fwd.Add(walkNS, elemPayload, h.payload)
	_ = s.ep.Send(next, WalkService, &fwd.Message)
	fwd.Release()
}
