// Package rendezvous implements the JXTA rendezvous protocol minus the
// peerview (which lives in internal/peerview): the rendezvous lease
// protocol, by which edge peers subscribe to a rendezvous peer, and the
// rendezvous propagation protocol (the walker), which moves messages across
// the ID-ordered rendezvous network (§3.2 items 2 and 3).
//
// A Service holds one half per role. An edge runs the lease client
// (client.go): it holds a lease on one rendezvous and renews it, and fails
// over to another seed when the rendezvous dies. A rendezvous runs the lease
// server (server.go): it owns the peerview, grants leases, relays walks
// (walk.go), merges islands and hands its table off. The Service keeps what
// both use or a promotion carries across, routes each message and call to
// the half that exists, and is the only place that asks which role it is
// in. An edge's client lives inside its Service, so an idle edge is one
// object. The role is dynamic: Promote builds the server half in place and
// zeroes the client, which is how a self-healing overlay replaces a dead
// super-peer without redeploying (Config.SelfHeal).
//
// # Self-healing
//
// With SelfHeal enabled, lease grants carry the rendezvous' peerview members
// ("alternates") and its client roster. Edges re-seed their failover
// rotation from the alternates when the rendezvous dies silently, and run a
// deterministic successor election over the roster when *no* rendezvous is
// reachable: every client picks the lowest-ID roster member, which promotes
// itself (via the hook the node installs), and the others re-lease with it.
// A gracefully stopping rendezvous hands its client lease table (and,
// through the handoff hook, the SRDI index) to a successor — a peerview
// neighbour when one exists, an elected client otherwise — and redirects
// every remaining client to it, so discovery keeps answering.
package rendezvous

import (
	"slices"
	"strconv"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/peerview"
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

// LeaseListener observes edge connectivity changes.
type LeaseListener func(rdv ids.ID, connected bool)

// core is what both halves use and what a promotion carries across; each
// half points at its Service's core.
type core struct {
	env env.Env
	ep  *endpoint.Endpoint
	cfg Config
	// leaseText is cfg.LeaseDuration in the lease protocol's decimal
	// nanoseconds, rendered once: every request and nearly every grant
	// carries exactly this value.
	leaseText string
	started   bool

	// The hooks, installed while the node is assembled. walkFn consumes
	// the walks addressed to walkSvc (SetWalkHandler).
	walkSvc   string
	walkFn    WalkHandler
	listeners []LeaseListener
	promoteFn func()
	mergeFn   func(peer ids.ID)
	handoffFn func(succ ids.ID)

	// rumors holds every rendezvous identity this peer learned (IslandMerge)
	// and survives promotion, so a promoted anchor at once tries to merge
	// with every island it heard of as an edge. Nil until first written
	// (rumorStore); the store's read methods take nil as empty.
	rumors *rumorStore

	m     *counts // behind a pointer, so that an edge's Service stays in its size class
	trace *metrics.Trace
}

// Service is the rendezvous service of one peer.
type Service struct {
	core
	cli client  // the edge's lease client; zero on a rendezvous
	srv *server // the rendezvous' lease server; nil on an edge
}

func newService(e env.Env, ep *endpoint.Endpoint, cfg Config) *Service {
	s := &Service{core: core{env: e, ep: ep, cfg: cfg.withDefaults(), m: new(counts), trace: metrics.NewTrace(0)}}
	s.leaseText = strconv.FormatInt(int64(s.cfg.LeaseDuration), 10)
	ep.Register(LeaseService, s.receiveLease)
	ep.Register(WalkService, s.receiveWalk)
	return s
}

// NewRendezvous builds the service in the rendezvous role, bound to the
// peer's peerview.
func NewRendezvous(e env.Env, ep *endpoint.Endpoint, pv *peerview.PeerView, cfg Config) *Service {
	s := newService(e, ep, cfg)
	s.srv = newServer(&s.core, pv)
	return s
}

// NewEdge builds the service in the edge role with the given rendezvous
// seeds (tried in order, wrapping around, on connect/failover). The edge can
// later be promoted in place (Promote). The list is kept clipped to its
// length, so that AddSeed copies it before appending and never writes into
// a caller's spare capacity, which other nodes built from one
// configuration share.
func NewEdge(e env.Env, ep *endpoint.Endpoint, seeds []peerview.Seed, cfg Config) *Service {
	s := newService(e, ep, cfg)
	s.cli = client{core: &s.core, seeds: slices.Clip(seeds)}
	return s
}

// IsRendezvous reports the current role.
func (s *Service) IsRendezvous() bool { return s.srv != nil }

// PeerView exposes the peerview (nil for edges).
func (s *Service) PeerView() *peerview.PeerView {
	if s.srv == nil {
		return nil
	}
	return s.srv.pv
}

// AddLeaseListener registers an edge connectivity observer (discovery and
// the application may both care).
func (s *Service) AddLeaseListener(l LeaseListener) { s.listeners = append(s.listeners, l) }

// SetPromoteHook installs the role-switch callback the successor election
// and the handoff path invoke: it must promote the owning node to the
// rendezvous role synchronously (node.Node.PromoteToRendezvous wires in
// here). Promotion is skipped when no hook is installed.
func (s *Service) SetPromoteHook(fn func()) { s.promoteFn = fn }

// SetHandoffHook installs the callback a graceful handoff invokes with the
// successor, after the lease table and before the redirects: discovery
// pushes its SRDI index there.
func (s *Service) SetHandoffHook(fn func(succ ids.ID)) { s.handoffFn = fn }

// SetMergeHook installs the merge-completion callback (IslandMerge), called
// with the counterpart's ID once per completed handshake leg, after the
// peerview union: the node re-replicates the SRDI there.
func (s *Service) SetMergeHook(fn func(peer ids.ID)) { s.mergeFn = fn }

// rumorStore returns the rumor store for writing, building it on first use.
func (c *core) rumorStore() *rumorStore {
	if c.rumors == nil {
		c.rumors = new(rumorStore)
	}
	return c.rumors
}

// learnRumor stores a verified tier rumor for onward gossip unless it names
// this peer, and returns the store's record of it: nil when the rumor names
// this peer or the store refused it.
func (c *core) learnRumor(r peerview.Rumor) *rumorRecord {
	if r.ID.Equal(c.ep.ID()) {
		return nil
	}
	return c.rumorStore().add(r)
}

// rumorSeed returns the rumor store's record for id, or the bare ID.
func (c *core) rumorSeed(id ids.ID) peerview.Seed {
	if rec := c.rumors.record(id); rec != nil {
		return rec.Seed
	}
	return peerview.Seed{ID: id}
}

// selfRumor is this peer's own checksummed tier record.
func (c *core) selfRumor() peerview.Rumor {
	return peerview.NewRumor(peerview.Seed{ID: c.ep.ID(), Addr: c.ep.Addr()})
}

// learnRoute records the route to a tier member or client. The endpoint keeps
// the address it is given and sd may have been read in place off a loaned
// message, so it is given a copy — when the route is new or has changed,
// which on a renewal it has not.
func (c *core) learnRoute(sd peerview.Seed) {
	if sd.Addr == "" {
		return
	}
	if cur, ok := c.ep.RouteTo(sd.ID); ok && cur == sd.Addr {
		return
	}
	c.ep.AddRoute(sd.ID, sd.Clone().Addr)
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
func (c *core) sendLease(peer ids.ID, m *message.Out) error {
	err := c.ep.Send(peer, LeaseService, &m.Message)
	m.Release()
	return err
}

// pickSuccessor elects the lowest ID of an ID-sorted client roster: every
// client applies the same rule to (a snapshot of) the same roster, so the
// election needs no messages and is deterministic under a fixed seed.
func pickSuccessor(roster []peerview.Seed) peerview.Seed {
	return roster[0]
}

// Promote switches an edge to the rendezvous role in place, over the given
// freshly built peerview: the client's timers are canceled and its lease
// dropped, and the client gives way to a server half, which sweeps its
// table if the service runs and probes every island the edge heard of. A
// client that elected itself successor hands its roster over: the server
// grants each co-client an implicit lease, so fan-out reaches it before it
// re-leases here.
func (s *Service) Promote(pv *peerview.PeerView) {
	if s.srv != nil || pv == nil {
		return
	}
	s.cli.cancelTimers()
	s.cli.setConnected(ids.Nil)
	var adopt []peerview.Seed
	if s.cli.elected {
		adopt = s.cli.roster
	}
	s.cli = client{}
	s.srv = newServer(&s.core, pv)
	s.m.promotions++
	s.traceEvent("promotion", ids.Nil)
	if s.started {
		s.srv.start()
	}
	s.srv.retryMerges()
	s.srv.adopt(adopt)
}

// Alternates returns the rendezvous peerview members learned from the last
// lease grant (SelfHeal) — the seed set a promoted edge re-joins the
// rendezvous network with.
func (s *Service) Alternates() []peerview.Seed { return slices.Clone(s.cli.alternates) }

// Roster returns the last-known co-client roster (SelfHeal), sorted by ID.
func (s *Service) Roster() []peerview.Seed { return slices.Clone(s.cli.roster) }

// Seeds returns the edge's rendezvous seeds: the configured ones, then those
// AddSeed added at runtime.
func (s *Service) Seeds() []peerview.Seed { return slices.Clone(s.cli.seeds) }

// Dormant reports whether the edge exhausted its failover budget and went
// quiet (no candidate answered and no heal path applied). Connect revives.
func (s *Service) Dormant() bool { return s.cli.dormant }

// ConnectedRdv returns the rendezvous currently holding this edge's lease.
func (s *Service) ConnectedRdv() (ids.ID, bool) {
	return s.cli.connectedTo, !s.cli.connectedTo.IsNil()
}

// HasClient reports whether the edge currently leases here.
func (s *Service) HasClient(edge ids.ID) bool { return s.srv != nil && s.srv.hasClient(edge) }

// AddSeed appends a rendezvous seed at runtime (live joins that discovered
// the seed's ID via the endpoint hello). A rendezvous has no use for it.
func (s *Service) AddSeed(seed peerview.Seed) {
	if s.srv == nil {
		s.cli.seeds = append(s.cli.seeds, seed)
	}
}

// Connect (edge role) requests a lease now, e.g. after a late AddSeed, and
// revives a dormant edge with a fresh failover budget.
func (s *Service) Connect() {
	if s.started && s.srv == nil {
		s.cli.connect()
	}
}

// Start begins the role's periodic work: client sweeping for rendezvous,
// lease acquisition for edges.
func (s *Service) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.srv != nil {
		s.srv.start()
		return
	}
	s.cli.start()
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

func (s *Service) halt(graceful bool) {
	if !s.started {
		return
	}
	s.started = false
	if s.srv != nil {
		s.srv.halt(graceful)
		return
	}
	s.cli.halt(graceful)
}

// Reset clears a stopped service's soft state for a cold restart: the rumor
// store, merge stamps and all, and the half's tables and progress. The role
// is kept: a promoted peer restarts as a rendezvous.
func (s *Service) Reset() {
	s.rumors = nil
	if s.srv != nil {
		s.srv.reset()
		return
	}
	s.cli.reset()
}

// Quiescent reports whether the service is an idle edge, dormant or with no
// lease attempt in flight (the armed renewal is a wake source, not work).
func (s *Service) Quiescent() bool { return s.srv == nil && s.cli.quiescent() }

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

// receiveLease routes a lease message, whose kind is its first non-empty
// type element in the order below, to the half that handles the kind; the
// other half's kinds are dropped. A handoff can switch an edge to the server
// half. The handlers gate on the running state — a stopped peer neither
// serves leases nor arms a renewal timer off a late grant; only the
// state-shedding Cancel always runs.
func (s *Service) receiveLease(src ids.ID, m *message.Message) {
	h := readLeaseHeader(m)
	switch {
	case len(h.request) != 0:
		if s.srv != nil {
			s.srv.receiveRequest(src, h.request, h.addr, m)
		}
	case len(h.cancel) != 0:
		if s.srv != nil {
			s.srv.receiveCancel(src)
		}
	case len(h.handoff) != 0:
		if !s.started || !s.cfg.SelfHeal {
			return
		}
		if s.srv == nil && s.promoteFn != nil {
			s.promoteFn() // the stopping rendezvous elected this edge successor
		}
		if s.srv != nil {
			s.srv.importHandoff(m)
		}
	case len(h.mergeRst) != 0:
		if s.srv != nil {
			s.srv.receiveMergeRoster(src, m)
		}
	case len(h.probe) != 0:
		s.receiveTierProbe(src, h.rumor)
	case len(h.ack) != 0:
		if s.srv != nil {
			s.srv.receiveTierAck(src, h.rumor)
		}
	case len(h.redirect) != 0:
		if s.srv == nil {
			s.cli.receiveRedirect(src, h.redirect)
		}
	case len(h.granted) != 0:
		if s.srv == nil {
			s.cli.receiveGrant(src, h.granted, m)
		}
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
	proberOK = proberOK && prober.ID.Equal(src)
	var answer peerview.Rumor
	var ok bool
	if s.srv != nil {
		answer, ok = s.srv.answerProbe(prober, proberOK)
	} else {
		answer, ok = s.cli.answerProbe(prober, proberOK)
	}
	if !ok {
		return
	}
	rsp := leaseMessage(elemTierAck, "1")
	rsp.AddScratch(leaseNS, elemRumor, answer.AppendEncode(rsp.Scratch()))
	_ = s.sendLease(src, rsp)
}
