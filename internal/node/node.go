// Package node assembles the full JXTA stack for one peer: transport,
// endpoint service (direct routes only), resolver, rendezvous service
// (peerview + lease + propagation, role-dependent), cache manager and
// discovery/LC-DHT. It is the unit the deployment layer instantiates — one
// Node per simulated or real peer.
//
// # Lifecycle
//
// Start brings the services up transport-nearest first (endpoint, resolver,
// peerview, rendezvous, discovery) and Stop tears them down in reverse, so a
// layer never sends through a layer that is already gone. Three verbs cover
// every deployment need:
//
//   - Stop: graceful halt. The edge lease is canceled, every service timer
//     is canceled (leak-free: the simulation scheduler's per-node pending
//     ledger reads zero afterwards). The node is restartable in place —
//     Start resumes over the same transport.
//   - Kill: crash. Identical teardown but nothing is sent and the transport
//     detaches; remote peers discover the death by timeout, as on a real
//     testbed.
//   - Restart: Stop (if needed) + Reset of all soft protocol state
//     (peerview entries, leases, SRDI index, push ledgers, learned
//     routes) + Start. The peer keeps its identity — same ID, same RNG
//     stream, same address — but rejoins the overlay cold, exactly like a
//     restarted process on the same host. The deployment layer re-attaches
//     the transport first when the node was killed.
//
// # Metrics
//
// Every service counts in plain fields it owns and registers them in its
// Collect method. A node holds no metrics registry: Node.Metrics builds one
// from those fields each time it is read, so counts survive Reset, Restart
// and promotion with the services that hold them, and a node pays for a
// registry only while it is being read.
//
// # An idle edge is small
//
// A steady-state edge — lease held, renewal timer armed, nothing in flight —
// is small because of how it is built, not because something shrinks it:
// the endpoint keeps its service and route tables in exact-size slices, the
// transport its FIFO clamp in one slice entry, and the services above them
// (cache, resolver, rendezvous client, discovery) allocate no map until
// first written, so their idle state is their zero state. The one
// large thing New touches is the env's RNG register (the peer ID is drawn
// from it); an edge never draws again, so the simulator's deployment layer
// hands the register back right after New (simnet.NodeEnv.ReleaseRand).
// Nothing in this package knows about that.
package node

import (
	"slices"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/cm"
	"jxta/internal/discovery"
	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
	"jxta/internal/transport"
)

// Role selects the peer's place in the super-peer overlay.
type Role int

// The two JXTA 2.x peer roles the paper's overlays use.
const (
	// Edge peers attach to a rendezvous via the lease protocol.
	Edge Role = iota
	// Rendezvous peers run the peerview and the LC-DHT.
	Rendezvous
)

// String names the role.
func (r Role) String() string {
	if r == Rendezvous {
		return "rendezvous"
	}
	return "edge"
}

// Config describes one peer.
type Config struct {
	// Name is the human-readable peer name (also the advertisement name).
	Name string
	// Role selects edge or rendezvous behaviour.
	Role Role
	// Seeds are the initial rendezvous contacts: peerview bootstrap for a
	// rendezvous, lease targets for an edge.
	Seeds []peerview.Seed
	// Peerview tunables; zero fields take paper defaults. Used by
	// rendezvous nodes at construction and by edges if they are promoted.
	Peerview peerview.Config
	// Lease tunables.
	Lease rendezvous.Config
	// Discovery tunables.
	Discovery discovery.Config
	// AdvStore, when set, is the interning table for every advertisement
	// this node caches or holds in its peerview. Deployments pass one store
	// per overlay so equal advertisements dedupe across the population and
	// the table dies with the overlay; nil falls back to the process-wide
	// default store.
	AdvStore *advstore.Store
	// Metrics is ignored: a node holds no registry, and Node.Metrics builds
	// one from the services' own counters when it is read. The field stays
	// because the repository benchmark sets it.
	//
	// Deprecated: benchmark only, ignored; goes with ROADMAP 0(a).
	Metrics *metrics.Registry
}

// Node is a fully assembled peer.
type Node struct {
	Env        env.Env
	ID         ids.ID
	Config     Config
	Endpoint   *endpoint.Endpoint
	Resolver   *resolver.Service
	PeerView   *peerview.PeerView // nil for edges
	Rendezvous *rendezvous.Service
	Discovery  *discovery.Service
	Cache      *cm.Cache

	// Metrics reads the node's runtime metrics: every service's counters
	// and gauges, through one Prometheus encode or Snapshot. Read it under
	// the node's env serialization.
	Metrics Metrics

	// RoleChanged, when set, observes edge→rendezvous promotions (the
	// deployment layer wires it through to experiment counters and facade
	// hooks). It fires after the swap completed.
	RoleChanged func(*Node)

	// MergeObserved, when set, observes completed island-merge handshake
	// legs (Config.Lease.IslandMerge): it fires with the merge counterpart
	// after the peerview union and the SRDI re-replication.
	MergeObserved func(n *Node, peer ids.ID)

	rdvAdv  *advertisement.Rdv
	started bool
}

// Metrics is a node's view of its own runtime metrics. It holds no
// registry: each read builds one from the services' counters.
type Metrics struct{ n *Node }

// Registry builds a registry over the node's services, for one encode
// (WritePrometheus) or Snapshot. Its collectors read protocol state, so
// build and encode it under the node's env serialization.
func (m Metrics) Registry() *metrics.Registry {
	n := m.n
	reg := metrics.NewRegistry()
	n.Endpoint.Collect(reg)
	n.Resolver.Collect(reg)
	if n.PeerView != nil {
		n.PeerView.Collect(reg)
	}
	n.Rendezvous.Collect(reg)
	n.Discovery.Collect(reg)
	reg.GaugeFunc("jxta_node_role", "Peer role: 1 rendezvous, 0 edge.",
		func() float64 {
			if n.IsRendezvous() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("jxta_node_started", "Lifecycle state: 1 started, 0 stopped.",
		func() float64 {
			if n.Started() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("jxta_cache_records", "Advertisements in the local cache.",
		func() float64 { return float64(n.Cache.Len()) })
	reg.GaugeFunc("jxta_cache_index_entries", "Attribute index entries in the local cache.",
		func() float64 { return float64(n.Cache.IndexSize()) })
	return reg
}

// Snapshot flattens the node's series into a map (metrics.Registry.Snapshot).
func (m Metrics) Snapshot() map[string]float64 { return m.Registry().Snapshot() }

// netPeerGroup is the peer group every node joins: the JXTA NetPeerGroup.
var netPeerGroup = ids.FromName(ids.KindGroup, "NetPeerGroup")

// New assembles a peer over the given environment and transport. The peer
// ID is drawn from the env's deterministic RNG, so overlays are reproducible
// under a fixed experiment seed.
func New(e env.Env, tr transport.Transport, cfg Config) *Node {
	if cfg.Name == "" {
		cfg.Name = e.Name()
	}
	if cfg.AdvStore == nil {
		cfg.AdvStore = advstore.Default()
	}
	id := ids.NewRandom(ids.KindPeer, e.Rand())
	ep := endpoint.New(e, id, tr)
	res := resolver.New(e, ep)
	cache := cm.NewWithStore(e, cfg.AdvStore)

	n := &Node{
		Env:      e,
		ID:       id,
		Config:   cfg,
		Endpoint: ep,
		Resolver: res,
		Cache:    cache,
	}
	n.Metrics = Metrics{n}
	if cfg.Role == Rendezvous {
		n.rdvAdv = &advertisement.Rdv{
			PeerID:  id,
			GroupID: netPeerGroup,
			Name:    cfg.Name,
			Address: string(tr.Addr()),
		}
		n.PeerView = peerview.New(e, ep, cfg.AdvStore, n.rdvAdv, cfg.Peerview, cfg.Seeds)
		n.Rendezvous = rendezvous.NewRendezvous(e, ep, n.PeerView, cfg.Lease)
	} else {
		n.Rendezvous = rendezvous.NewEdge(e, ep, cfg.Seeds, cfg.Lease)
	}
	var busy discovery.BusySink
	if sink, ok := tr.(discovery.BusySink); ok {
		busy = sink
	}
	n.Discovery = discovery.New(e, ep, res, n.Rendezvous, cache, cfg.Discovery, busy)

	// Role is dynamic: the rendezvous service's self-healing paths (crash
	// election, graceful handoff) promote the whole node through this hook.
	n.Rendezvous.SetPromoteHook(n.PromoteToRendezvous)
	// A completed island merge changes the replica mapping: re-replicate
	// the SRDI over the merged view, then surface the event.
	n.Rendezvous.SetMergeHook(func(peer ids.ID) {
		n.Discovery.Rereplicate()
		if n.MergeObserved != nil {
			n.MergeObserved(n, peer)
		}
	})
	return n
}

// PromoteToRendezvous switches an edge node to the rendezvous role in
// place, while it runs: a fresh peerview — seeded from the alternates the
// dead rendezvous shared, plus the original seeds — starts if the node is
// up, the rendezvous service swaps roles (leases are granted from now on),
// and discovery gains an SRDI index with the node's own advertisements
// republished into it. Stop then halts the peerview where a node built as
// a rendezvous has it, between rendezvous and resolver. The node keeps its
// identity: same ID, same RNG stream, same address. No-op on a node
// already holding the rendezvous role.
func (n *Node) PromoteToRendezvous() {
	if n.PeerView != nil {
		return
	}
	n.Config.Role = Rendezvous
	n.rdvAdv = &advertisement.Rdv{
		PeerID:  n.ID,
		GroupID: netPeerGroup,
		Name:    n.Config.Name,
		Address: string(n.Endpoint.Addr()),
	}
	// Re-seed the peerview from everything this peer knew about the
	// overlay: the alternates from the final lease grant, the co-client
	// roster (roster snapshots can diverge, so two clients of one dead
	// rendezvous may both promote — probing the roster merges their views),
	// and the configured seeds. Dead seeds cost a probe per interval while
	// the view is unhappy, and bridge the view back together the moment a
	// victim rejoins at its old address. A sole-rendezvous takeover starts
	// empty and simply is the rendezvous network.
	seeds := n.Rendezvous.Alternates()
	for _, sd := range append(n.Rendezvous.Roster(), n.Config.Seeds...) {
		if !sd.ID.Equal(n.ID) && !slices.ContainsFunc(seeds, func(have peerview.Seed) bool { return have.ID.Equal(sd.ID) }) {
			seeds = append(seeds, sd)
		}
	}
	n.PeerView = peerview.New(n.Env, n.Endpoint, n.Config.AdvStore, n.rdvAdv, n.Config.Peerview, seeds)
	if n.started {
		n.PeerView.Start()
	}
	n.Rendezvous.Promote(n.PeerView)
	n.Discovery.Promote()
	if n.RoleChanged != nil {
		n.RoleChanged(n)
	}
}

// Start brings the peer's services up, transport-nearest first. The
// endpoint and resolver have no periodic work: construction started them.
// Idempotent.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	if n.PeerView != nil {
		n.PeerView.Start()
	}
	n.Rendezvous.Start()
	n.Discovery.Start()
}

// Started reports whether the node is currently up.
func (n *Node) Started() bool { return n.started }

// Stop shuts the peer's services down gracefully in reverse start order: the
// edge lease is cancelled, and every timer any service armed is cancelled,
// so a stopped node owns no pending callbacks. The transport stays
// attached — Start brings the node back in place. Idempotent.
func (n *Node) Stop() { n.halt(true) }

// Kill crashes the peer: the same teardown as Stop but nothing is sent —
// no lease cancel, no handoff — and the transport endpoint closes, so
// remote peers learn of the death only through their own timeouts (lease
// renewal, peerview entry expiry).
func (n *Node) Kill() {
	n.halt(false)
	n.Endpoint.Close()
}

// halt tears the services down in reverse start order. The rendezvous
// service is the one layer whose teardown sends: graceful stops it, and a
// crash aborts it.
func (n *Node) halt(graceful bool) {
	if !n.started {
		return
	}
	n.started = false
	n.Discovery.Stop()
	if graceful {
		n.Rendezvous.Stop()
	} else {
		n.Rendezvous.Abort()
	}
	if n.PeerView != nil {
		n.PeerView.Stop()
	}
	n.Resolver.Stop()
	n.Endpoint.Stop()
}

// Restart cold-restarts the peer in place: graceful Stop if still running,
// then every service discards its soft protocol state — peerview entries,
// leases and walk dedup, SRDI index and push ledgers, learned routes — and
// Start rejoins the overlay from the configured seeds. Identity is
// preserved: same peer ID, same RNG stream, same transport address. If the
// node was killed, the caller must re-attach the transport first
// (deploy.Overlay.RestartNode does).
func (n *Node) Restart() {
	n.Stop()
	n.Endpoint.Reset()
	if n.PeerView != nil {
		n.PeerView.Reset()
	}
	n.Rendezvous.Reset()
	n.Discovery.Reset()
	n.Start()
}

// AddSeed wires an additional rendezvous seed at runtime and, for edges,
// immediately tries to lease from it.
func (n *Node) AddSeed(seed peerview.Seed) {
	if n.PeerView != nil {
		n.PeerView.AddSeed(seed)
	}
	n.Rendezvous.AddSeed(seed)
	n.Rendezvous.Connect()
}

// Seed returns this peer as a seed entry for wiring other peers.
func (n *Node) Seed() peerview.Seed {
	return peerview.Seed{ID: n.ID, Addr: n.Endpoint.Addr()}
}

// IsRendezvous reports the role.
func (n *Node) IsRendezvous() bool { return n.PeerView != nil }

// Hibernating reports whether the node is an idle edge: edge role and every
// service quiescent. There is no hibernation mode any more; the name stays
// for the repository benchmark, which compiles against it.
//
// Deprecated: goes with the benchmark-only PR of ROADMAP 0(a).
func (n *Node) Hibernating() bool {
	return n.PeerView == nil &&
		n.Endpoint.Quiescent() && n.Resolver.Quiescent() &&
		n.Rendezvous.Quiescent() && n.Discovery.Quiescent() && n.Cache.Quiescent()
}

// HibernationStats returns 0, 0: nothing wakes or freezes.
//
// Deprecated: goes with the benchmark-only PR of ROADMAP 0(a).
func (n *Node) HibernationStats() (wakes, freezes uint64) { return 0, 0 }

// PeerAdv builds this peer's peer advertisement (the Table 1 example
// publishes one of these with Name "Test").
func (n *Node) PeerAdv() *advertisement.Peer {
	return &advertisement.Peer{
		PeerID:    n.ID,
		Name:      n.Config.Name,
		Addresses: []string{string(n.Endpoint.Addr())},
	}
}
