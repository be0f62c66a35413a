// Package jxta is a from-scratch Go implementation of the JXTA 2.x
// peer-to-peer protocol stack — endpoint, resolver, rendezvous
// (peerview, lease, propagation) and discovery over the Loosely-Consistent
// DHT — together with a deterministic Grid'5000-style network simulator
// that reproduces the experiments of "Performance scalability of the JXTA
// P2P framework" (Antoniu, Cudennec, Duigou, Jan; INRIA RR-6064).
//
// The package is a facade over the internal protocol packages. A typical
// session builds a simulated overlay, publishes advertisements from edge
// peers and discovers them through the LC-DHT:
//
//	sim, _ := jxta.NewSimulation(jxta.SimOptions{
//		Rendezvous: 6,
//		Edges:      []jxta.EdgeSpec{{AttachTo: 0}, {AttachTo: 5}},
//	})
//	sim.Start()
//	sim.Run(15 * time.Minute) // let the peerview converge
//	pub, search := sim.Edge(0), sim.Edge(1)
//	pub.PublishResource("Test", nil)
//	advs, elapsed, _ := search.Discover("Resource", "Name", "Test", time.Minute)
//
// Membership is dynamic: peers have a full lifecycle, so volatility and
// self-healing scenarios are first-class. Stop halts a peer gracefully
// (lease cancelled, every timer cancelled — PendingCallbacks proves the
// teardown leak-free), Kill crashes it silently, Restart brings
// it back with the same identity and fresh protocol state, and AddEdge
// joins new peers while virtual time runs:
//
//	sim.Rendezvous(3).Kill()            // crash a super-peer
//	sim.Run(10 * time.Minute)           // overlay routes around it
//	sim.Rendezvous(3).Restart()         // same ID, cold state: rejoins
//	late, _ := sim.AddEdge("late", 0)   // live join
//
// Everything is deterministic under SimOptions.Seed. For live deployments
// over real TCP, see cmd/jxta-node; for the paper's experiment drivers, see
// cmd/jxta-bench.
package jxta

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/simnet"
	"jxta/internal/topology"
)

// Advertisement is a published resource description (peer, rendezvous,
// route, pipe, module or generic resource).
type Advertisement = advertisement.Advertisement

// Resource is the generic application advertisement type.
type Resource = advertisement.Resource

// PeerAdv is a peer advertisement.
type PeerAdv = advertisement.Peer

// IndexField is one searchable (attribute, value) pair.
type IndexField = advertisement.IndexField

// EdgeSpec attaches one edge peer to a rendezvous (by deployment index).
type EdgeSpec struct {
	// AttachTo is the rendezvous index in [0, Rendezvous).
	AttachTo int
	// Name optionally names the peer.
	Name string
}

// SimOptions configures a simulated overlay.
type SimOptions struct {
	// Seed drives all randomness; equal seeds replay identical runs.
	Seed int64
	// Rendezvous is the number of rendezvous peers (the paper's r).
	Rendezvous int
	// Topology is the bootstrap seed shape: "chain" (default), "tree",
	// or "star".
	Topology string
	// Edges lists the edge peers to deploy.
	Edges []EdgeSpec
	// LeaseDuration overrides the rendezvous lease length (0 keeps the
	// JXTA-C default of 20 minutes; renewals happen at half of it).
	// Volatility scenarios shorten it so failure detection, failover and
	// the self-healing machinery run on a faster clock.
	LeaseDuration time.Duration
	// DisableSelfHealing turns the self-healing rendezvous tier off.
	// By default a simulated overlay heals itself: edges detect a silent
	// rendezvous through missed lease renewals, fail over to the peerview
	// alternates their grants carried, and — when no rendezvous is left —
	// deterministically elect one of themselves to promote in place
	// (Peer.Role flips to "rendezvous"); a gracefully stopped rendezvous
	// hands its lease table and SRDI index to a successor. Disabling
	// reproduces the paper-faithful protocol with none of the extensions.
	DisableSelfHealing bool
	// DisableIslandMerge turns the gossip-driven island merge off while
	// keeping the rest of the self-healing machinery. By default (with
	// self-healing on) lease traffic piggybacks checksummed "tier rumor"
	// records, so a rendezvous that learns of a foreign rendezvous — an
	// island anchored by a promoted successor it never met — runs a
	// deterministic peerview merge handshake: member lists union, SRDI
	// tuples re-replicate over the merged view, and duplicate client
	// leases reconcile (lowest-ID rendezvous wins, losers redirect).
	// Implied by DisableSelfHealing.
	DisableIslandMerge bool
}

// Simulation owns a deployed overlay and its virtual clock.
type Simulation struct {
	overlay   *deploy.Overlay
	edges     []*Peer
	rdvs      []*Peer
	byNode    map[*node.Node]*Peer
	onPromote func(*Peer)
	onMerge   func(*Peer, string)
	started   bool
}

// Peer wraps one deployed peer (edge or rendezvous).
type Peer struct {
	sim *Simulation
	n   *node.Node
}

// ErrTimeout reports a Discover call that saw no response in its window.
var ErrTimeout = errors.New("jxta: discovery timed out")

// NewSimulation deploys the overlay described by opts. Peers are created
// but not started.
func NewSimulation(opts SimOptions) (*Simulation, error) {
	kind := topology.Chain
	if opts.Topology != "" {
		var err error
		kind, err = topology.ParseKind(opts.Topology)
		if err != nil {
			return nil, err
		}
	}
	spec := deploy.Spec{
		Seed:      opts.Seed,
		NumRdv:    opts.Rendezvous,
		Topology:  kind,
		Discovery: discovery.DefaultConfig(),
	}
	spec.Lease.LeaseDuration = opts.LeaseDuration
	if !opts.DisableSelfHealing {
		spec.Lease.SelfHeal = true
		spec.Lease.IslandMerge = !opts.DisableIslandMerge
		// Active failure detection: a dead rendezvous leaves neighbouring
		// peerviews after ~3 unanswered probe rounds instead of lingering
		// a full PVE_EXPIRATION.
		spec.Peerview.ProbeTimeoutRounds = 3
	}
	for i, e := range opts.Edges {
		if e.AttachTo < 0 || e.AttachTo >= opts.Rendezvous {
			return nil, fmt.Errorf("jxta: edge %d attaches to rendezvous %d of %d",
				i, e.AttachTo, opts.Rendezvous)
		}
	}
	o, err := deploy.Build(spec)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{overlay: o, byNode: make(map[*node.Node]*Peer)}
	o.OnPromotion = func(n *node.Node) {
		if p, ok := sim.byNode[n]; ok && sim.onPromote != nil {
			sim.onPromote(p)
		}
	}
	o.OnMerge = func(n *node.Node, peer ids.ID) {
		if p, ok := sim.byNode[n]; ok && sim.onMerge != nil {
			sim.onMerge(p, peer.String())
		}
	}
	for _, r := range o.Rdvs {
		p := &Peer{sim: sim, n: r}
		sim.rdvs = append(sim.rdvs, p)
		sim.byNode[r] = p
	}
	for i, e := range opts.Edges {
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("edge%d", i)
		}
		n, err := o.AddEdge(name, e.AttachTo)
		if err != nil {
			return nil, err
		}
		p := &Peer{sim: sim, n: n}
		sim.edges = append(sim.edges, p)
		sim.byNode[n] = p
	}
	return sim, nil
}

// OnPromotion installs an observer that fires whenever the self-healing
// machinery promotes an edge peer to the rendezvous role while the
// simulation runs (successor election after a crash, or a graceful handoff
// electing a client). The peer passed is the promoted one.
func (s *Simulation) OnPromotion(fn func(*Peer)) { s.onPromote = fn }

// OnMerge installs an observer that fires whenever a peer completes an
// island-merge handshake leg while the simulation runs: the local peer and
// the merge counterpart's URN. With self-healing on (the default), islands
// left behind by total attrition gossip each other's existence through
// surviving edges and merge back into a single rendezvous tier.
func (s *Simulation) OnMerge(fn func(p *Peer, peer string)) { s.onMerge = fn }

// Start brings every peer up.
func (s *Simulation) Start() {
	if s.started {
		return
	}
	s.started = true
	s.overlay.StartAll()
}

// Stop shuts every peer down.
func (s *Simulation) Stop() {
	if !s.started {
		return
	}
	s.started = false
	s.overlay.StopAll()
}

// Run advances virtual time by d.
func (s *Simulation) Run(d time.Duration) {
	s.overlay.Sched.Run(s.overlay.Sched.Now() + d)
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.overlay.Sched.Now() }

// Steps returns the number of simulator events executed so far — the
// numerator of the engine's events/sec throughput metric.
func (s *Simulation) Steps() uint64 { return s.overlay.Sched.Steps() }

// Rendezvous returns the i-th rendezvous peer.
func (s *Simulation) Rendezvous(i int) *Peer { return s.rdvs[i] }

// Edge returns the i-th edge peer (deployment order of SimOptions.Edges).
func (s *Simulation) Edge(i int) *Peer { return s.edges[i] }

// NumRendezvous and NumEdges report the overlay shape.
func (s *Simulation) NumRendezvous() int { return len(s.rdvs) }

// NumEdges reports how many edge peers were deployed.
func (s *Simulation) NumEdges() int { return len(s.edges) }

// Messages returns the total messages the simulated network carried.
func (s *Simulation) Messages() uint64 { return s.overlay.Net.Stats().Messages }

// KillRendezvous crashes the i-th rendezvous (volatility experiments).
func (s *Simulation) KillRendezvous(i int) { s.overlay.KillRdv(i) }

// AddEdge deploys one more edge peer at virtual runtime, attached to the
// given rendezvous. On a started simulation the peer comes up immediately
// and acquires its lease — a live join.
func (s *Simulation) AddEdge(name string, attachTo int) (*Peer, error) {
	if attachTo < 0 || attachTo >= len(s.rdvs) {
		return nil, fmt.Errorf("jxta: edge attaches to rendezvous %d of %d",
			attachTo, len(s.rdvs))
	}
	if name == "" {
		name = fmt.Sprintf("edge%d", len(s.edges))
	}
	n, err := s.overlay.AddEdge(name, attachTo)
	if err != nil {
		return nil, err
	}
	p := &Peer{sim: s, n: n}
	s.edges = append(s.edges, p)
	s.byNode[n] = p
	return p, nil
}

// PendingCallbacks returns the number of live timers the peer's services
// currently own in the simulation scheduler. After Peer.Stop it is zero —
// the leak-freedom contract of the service lifecycle, pinned by regression
// tests.
func (s *Simulation) PendingCallbacks(p *Peer) int {
	ne, ok := p.n.Env.(*simnet.NodeEnv)
	if !ok {
		return 0
	}
	// The ledger lives on the env's own scheduler — under the sharded
	// engine, that is the shard owning the peer's site.
	return ne.Pending()
}

// ID returns the peer's JXTA ID in URN form.
func (p *Peer) ID() string { return p.n.ID.String() }

// Name returns the peer's configured name.
func (p *Peer) Name() string { return p.n.Config.Name }

// IsRendezvous reports the peer's current role. Roles are dynamic: a peer
// deployed as an edge may have been promoted since (self-healing, or an
// explicit Promote).
func (p *Peer) IsRendezvous() bool { return p.n.IsRendezvous() }

// Role names the peer's current role: "rendezvous" or "edge".
func (p *Peer) Role() string {
	if p.n.IsRendezvous() {
		return node.Rendezvous.String()
	}
	return node.Edge.String()
}

// Promote switches an edge peer to the rendezvous role in place, while it
// runs: it gains a peerview (seeded from the rendezvous network it knew),
// starts granting leases and serving the LC-DHT, and republishes its own
// advertisements into its fresh SRDI index. The self-healing machinery
// calls this automatically when a successor election picks this peer;
// exposing it lets deployments rebalance the super-peer tier by hand.
// No-op on a rendezvous.
func (p *Peer) Promote() { p.n.PromoteToRendezvous() }

// PeerViewSize returns l, the peer's local peerview size (rendezvous only;
// -1 for edges).
func (p *Peer) PeerViewSize() int {
	if p.n.PeerView == nil {
		return -1
	}
	return p.n.PeerView.Size()
}

// Connected reports whether an edge currently holds a rendezvous lease.
func (p *Peer) Connected() bool {
	if p.n.IsRendezvous() {
		return p.n.Started()
	}
	_, ok := p.n.Rendezvous.ConnectedRdv()
	return ok
}

// Started reports whether the peer is currently running.
func (p *Peer) Started() bool { return p.n.Started() }

// Stop gracefully halts the peer: the lease is cancelled and every service
// timer is cancelled (PendingCallbacks drops to zero). The peer can come
// back with Restart.
func (p *Peer) Stop() { p.n.Stop() }

// Kill crashes the peer: nothing is sent and its address stops answering;
// the overlay discovers the death through its own timeouts. Restart heals
// it.
func (p *Peer) Kill() { p.sim.overlay.KillNode(p.n) }

// Restart cold-restarts the peer in place (after Stop or Kill, or while
// running): same ID and address, fresh protocol state — the peerview
// rebuilds from seeds, an edge re-leases and re-publishes.
func (p *Peer) Restart() { p.sim.overlay.RestartNode(p.n) }

// Publish stores an advertisement and pushes its index to the LC-DHT.
// Lifetime zero uses the stack default (2 h).
func (p *Peer) Publish(adv Advertisement, lifetime time.Duration) {
	p.n.Discovery.Publish(adv, lifetime)
}

// PublishResource publishes a generic resource advertisement with the given
// name and extra indexed attributes, in attribute-name order. It returns the
// advertisement.
func (p *Peer) PublishResource(name string, attrs map[string]string) *Resource {
	fields := make([]IndexField, 0, len(attrs))
	for _, k := range slices.Sorted(maps.Keys(attrs)) {
		fields = append(fields, IndexField{Attr: k, Value: attrs[k]})
	}
	// Deterministic advertisement ID from publisher + name.
	adv := &Resource{
		ResID: ids.FromName(ids.KindAdv, p.n.ID.String()+"/"+name),
		Name:  name,
		Attrs: fields,
	}
	p.n.Discovery.Publish(adv, 0)
	return adv
}

// PublishPeerAdv publishes this peer's own peer advertisement (the paper's
// Table 1 workload publishes one with Name "Test").
func (p *Peer) PublishPeerAdv() *PeerAdv {
	adv := p.n.PeerAdv()
	p.n.Discovery.Publish(adv, 0)
	return adv
}

// FlushCache drops remotely discovered advertisements (the benchmark's
// anti-caching step).
func (p *Peer) FlushCache() { p.n.Discovery.FlushCache() }

// discoverSettle is how long Discover keeps merging responses from further
// publishers after the first one answered (virtual time).
const discoverSettle = 100 * time.Millisecond

// Discover searches the overlay for advertisements of advType whose attr
// equals value, advancing virtual time until a response arrives or `within`
// elapses. The lookup collects every publisher (discovery.QueryAll):
// responses arriving shortly after the first are merged (deduplicated by
// advertisement ID). It returns the advertisements, the latency of the first
// response, and ErrTimeout when nothing answered.
func (p *Peer) Discover(advType, attr, value string, within time.Duration) ([]Advertisement, time.Duration, error) {
	return p.discover(within, func(onResult func(discovery.Result)) error {
		return p.n.Discovery.QueryAll(advType, attr, value, onResult, nil)
	})
}

// DiscoverRange searches for advertisements of advType whose attr is an
// integer within [lo, hi] — the complex-query extension (paper §5 future
// work). Ranges walk the whole rendezvous view, so responses from several
// publishers are merged over the settle window.
func (p *Peer) DiscoverRange(advType, attr string, lo, hi int64, within time.Duration) ([]Advertisement, time.Duration, error) {
	return p.discover(within, func(onResult func(discovery.Result)) error {
		return p.n.Discovery.QueryRange(advType, attr, lo, hi, onResult, nil)
	})
}

// discover issues a query, waits up to within for its first response, then
// merges further responses over discoverSettle, deduplicated by
// advertisement ID.
func (p *Peer) discover(within time.Duration, query func(onResult func(discovery.Result)) error) ([]Advertisement, time.Duration, error) {
	var first *discovery.Result
	var merged []Advertisement
	seen := map[string]bool{}
	err := query(func(r discovery.Result) {
		if first == nil {
			first = &r
		}
		for _, adv := range r.Advs {
			key := adv.ID().String()
			if !seen[key] {
				seen[key] = true
				merged = append(merged, adv)
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	p.runUntil(within, func() bool { return first != nil })
	if first == nil {
		return nil, 0, ErrTimeout
	}
	sched := p.sim.overlay.Sched
	sched.Run(sched.Now() + discoverSettle)
	return merged, first.Elapsed, nil
}

// runUntil advances virtual time in 10 ms slices until done reports true or
// within has elapsed.
func (p *Peer) runUntil(within time.Duration, done func() bool) {
	sched := p.sim.overlay.Sched
	deadline := sched.Now() + within
	for !done() && sched.Now() < deadline {
		sched.Run(min(sched.Now()+10*time.Millisecond, deadline))
	}
}

// TraceEvent is one protocol transition recorded by a peer: promotions,
// failovers, island merges and lease-state changes, with the virtual
// timestamp it happened at.
type TraceEvent = metrics.TraceEvent

// MetricsSnapshot flattens the peer's metrics — every service's counters,
// gauges and histogram buckets — into a name→value map
// keyed by Prometheus series name. Call it while virtual time is paused
// (between Run calls); collecting is a pure observation and never perturbs
// the simulation.
func (p *Peer) MetricsSnapshot() map[string]float64 { return p.n.Metrics.Snapshot() }

// WriteMetrics encodes the peer's metrics in Prometheus text exposition
// format (the same bytes a live node serves on /metrics).
func (p *Peer) WriteMetrics(w io.Writer) error { return p.n.Metrics.Registry().WritePrometheus(w) }

// TraceEvents returns the peer's protocol event ring, oldest first: the
// most recent lease transitions, elections, promotions, handoffs and
// island merges with virtual timestamps.
func (p *Peer) TraceEvents() []TraceEvent { return p.n.Rendezvous.Trace().Events() }

// OverlayMetrics flattens the overlay-level registry — fabric traffic and,
// on sharded runs, engine window/barrier instrumentation — into a
// name→value map. Call between Run calls.
func (s *Simulation) OverlayMetrics() map[string]float64 { return s.overlay.Metrics.Snapshot() }

// Grid5000Sites returns the nine modeled site names, for documentation and
// tooling.
func Grid5000Sites() []string {
	out := make([]string, netmodel.NumSites)
	for i := range out {
		out[i] = netmodel.Site(i).String()
	}
	return out
}
