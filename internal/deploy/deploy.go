// Package deploy instantiates whole overlays onto the simulator from a
// declarative specification — the role ADAGE (with the authors' JXTA
// plug-in) played in the paper: "overlays can be described in a concise
// manner, and generation of configuration files for JXTA automated".
package deploy

import (
	"fmt"
	"strconv"

	"jxta/internal/advstore"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/simnet"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// EdgeGroup attaches Count edge peers to the rendezvous at index AttachTo.
type EdgeGroup struct {
	AttachTo int
	Count    int
	Prefix   string // node name prefix, default "edge"
}

// Spec declares an overlay.
type Spec struct {
	// Seed is the experiment master seed (determinism).
	Seed int64
	// NumRdv is the number of rendezvous peers (r in the paper).
	NumRdv int
	// Shards selects the simulation engine: ≤1 (the default) runs the
	// serial scheduler, byte-identical to every earlier release; >1 runs
	// the conservative sharded engine with peers partitioned by site
	// (clamped to the number of modeled sites), every shard waiting at a
	// global barrier between lookahead windows. Protocol outcomes are
	// deterministic for a given (Seed, Shards) pair at any GOMAXPROCS but
	// differ between shard counts: per-node RNG streams derive from
	// per-shard seeds.
	Shards int
	// Hibernate is ignored: every deployed edge is built small (AddEdge).
	// The field stays because the repository benchmark sets it.
	//
	// Deprecated: goes with the benchmark-only PR of ROADMAP 0(a).
	Hibernate bool
	// LeanMetrics is ignored: a node holds no metrics registry between
	// scrapes, so there is no lighter mode to pick. The field stays because
	// the repository benchmark sets it.
	//
	// Deprecated: benchmark only, ignored; goes with ROADMAP 0(a).
	LeanMetrics bool
	// Topology is the seed-graph shape (chain in most experiments).
	Topology topology.Kind
	// Peerview, Lease, Discovery tune the protocols; zero = paper defaults.
	Peerview  peerview.Config
	Lease     rendezvous.Config
	Discovery discovery.Config
	// Edges attaches edge peers to rendezvous.
	Edges []EdgeGroup
}

// Overlay is a deployed set of peers sharing one simulator. Membership is
// dynamic: peers can be stopped, killed, restarted and added while virtual
// time runs (self-healing and volatility scenarios).
type Overlay struct {
	Sched simnet.Engine
	Net   *transport.Network
	Rdvs  []*node.Node
	Edges []*node.Node

	// AdvStore is the overlay's advertisement interning table: every node's
	// cache and peerview dedupes equal advertisements through it, and it is
	// collectible with the overlay (unlike the process-wide default store).
	AdvStore *advstore.Store

	// OnPromotion, when set, observes edge→rendezvous role switches (the
	// self-healing machinery promotes nodes while virtual time runs).
	// Deployment lists are kept by construction role; use Node.IsRendezvous
	// for the current role.
	OnPromotion func(*node.Node)

	// OnMerge, when set, observes completed island-merge handshake legs
	// (Spec.Lease.IslandMerge): the node that merged and its counterpart's
	// peer ID.
	//
	// Both hooks run inside node callbacks, on the node's shard, so a hook
	// that shares state across nodes races on the sharded engine. Only the
	// library facade, which is serial-only, and the benchmark set them;
	// experiments read the per-node promotion and merge counters instead.
	OnMerge func(n *node.Node, peer ids.ID)

	spec      Spec
	edgeCount int
	started   bool
	// promoted and merged forward a node's RoleChanged and MergeObserved to
	// OnPromotion and OnMerge. Built once in Build, every node shares them.
	promoted func(*node.Node)
	merged   func(*node.Node, ids.ID)
	// sharded/assign are set when the sharded engine runs: assign[site]
	// names the shard owning each Grid'5000 site (topology.PlaceSites).
	sharded *simnet.ShardedScheduler
	assign  []int
	// sites[i] is rendezvous i's site; its edges live there too.
	sites []netmodel.Site
}

// Build deploys the overlay. Rendezvous peers are spread round-robin over
// the nine Grid'5000 sites, as the paper's multi-site runs were.
func Build(spec Spec) (*Overlay, error) {
	if spec.NumRdv < 0 {
		return nil, fmt.Errorf("deploy: NumRdv=%d", spec.NumRdv)
	}
	model := netmodel.Grid5000()
	o := &Overlay{spec: spec, AdvStore: advstore.New()}
	if spec.Shards > 1 {
		shards := spec.Shards
		if shards > netmodel.NumSites {
			// Placement is site-granular, so shards beyond the site
			// count would stay empty forever.
			shards = netmodel.NumSites
		}
		assign := topology.PlaceSites(netmodel.NumSites, shards)
		lookahead := model.ShardLookahead(assign)
		if lookahead <= 0 {
			return nil, fmt.Errorf("deploy: model admits no conservative lookahead across %d shards (zero inter-site latency)", shards)
		}
		ss := simnet.NewSharded(spec.Seed, shards, lookahead)
		net, err := transport.NewShardedNetwork(ss, model, assign)
		if err != nil {
			return nil, err
		}
		o.Sched, o.Net, o.sharded, o.assign = ss, net, ss, assign
	} else {
		sched := simnet.NewScheduler(spec.Seed)
		o.Sched, o.Net = sched, transport.NewNetwork(sched, model)
	}

	o.promoted = func(nn *node.Node) {
		if o.OnPromotion != nil {
			o.OnPromotion(nn)
		}
	}
	o.merged = func(nn *node.Node, peer ids.ID) {
		if o.OnMerge != nil {
			o.OnMerge(nn, peer)
		}
	}

	seedIdx, err := topology.Seeds(spec.Topology, spec.NumRdv)
	if err != nil {
		return nil, err
	}
	o.sites = netmodel.SpreadSites(spec.NumRdv)
	for i, site := range o.sites {
		name := fmt.Sprintf("rdv%d", i)
		e := o.newEnv(name, site)
		tr, err := o.Net.Attach(name, site)
		if err != nil {
			return nil, err
		}
		var seeds []peerview.Seed
		for _, s := range seedIdx[i] {
			seeds = append(seeds, o.Rdvs[s].Seed())
		}
		n := node.New(e, tr, node.Config{
			Name:      name,
			Role:      node.Rendezvous,
			Seeds:     seeds,
			Peerview:  spec.Peerview,
			Lease:     spec.Lease,
			Discovery: spec.Discovery,
			AdvStore:  o.AdvStore,
		})
		n.MergeObserved = o.merged
		o.Rdvs = append(o.Rdvs, n)
	}
	for _, g := range spec.Edges {
		if g.AttachTo < 0 || g.AttachTo >= spec.NumRdv {
			return nil, fmt.Errorf("deploy: edge group attaches to rdv %d of %d", g.AttachTo, spec.NumRdv)
		}
		prefix := g.Prefix
		if prefix == "" {
			prefix = "edge"
		}
		for j := 0; j < g.Count; j++ {
			if _, err := o.AddEdge(fmt.Sprintf("%s%d", prefix, o.edgeCount), g.AttachTo); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// AddEdge attaches one more edge peer to the given rendezvous. The edge
// lives on the same site as its rendezvous (the paper's noisers and
// publisher/searcher run on testbed nodes beside their rendezvous cluster).
// On a running overlay the new edge starts immediately — a live join at
// virtual runtime.
//
// An idle edge is small by construction, with no mode to switch on: its
// endpoint, transport and services hold a few exact-size slices and no maps,
// and the one large thing node.New touches, the env's RNG register, is
// handed back here — the peer ID is the only draw an edge ever makes.
// simnet.NodeEnv.Rand rebuilds the stream at its position should a promotion
// make it draw again.
func (o *Overlay) AddEdge(name string, attachTo int) (*node.Node, error) {
	rdv, site := o.Rdvs[attachTo], o.sites[attachTo]
	e := o.newEnv(name, site)
	tr, err := o.Net.Attach(name, site)
	if err != nil {
		return nil, err
	}
	n := node.New(e, tr, node.Config{
		Name:      name,
		Role:      node.Edge,
		Seeds:     []peerview.Seed{rdv.Seed()},
		Peerview:  o.spec.Peerview, // promotion builds its peerview from this
		Lease:     o.spec.Lease,
		Discovery: o.spec.Discovery,
		AdvStore:  o.AdvStore,
	})
	e.ReleaseRand()
	n.RoleChanged, n.MergeObserved = o.promoted, o.merged
	o.Edges = append(o.Edges, n)
	o.edgeCount++
	if o.started {
		n.Start()
	}
	return n, nil
}

// newEnv creates a node environment on the shard owning the node's site
// (shard affinity: a node's timers run in the same windows as its
// deliveries). Serial overlays place everything on the one scheduler.
func (o *Overlay) newEnv(name string, site netmodel.Site) *simnet.NodeEnv {
	if o.sharded != nil {
		return o.sharded.NewEnvOn(o.assign[site], name)
	}
	return o.Sched.NewEnv(name)
}

// Engine returns the sharded engine when one is running (nil for serial
// overlays); experiments use it to read window/barrier instrumentation.
func (o *Overlay) Engine() *simnet.ShardedScheduler { return o.sharded }

// Registry builds the overlay-level registry, for one encode or Snapshot:
// fabric traffic counters (jxta_net_*) plus, on sharded runs, the engine's
// window/barrier instrumentation (jxta_sim_*). Per-node series are read from
// each node (node.Node.Metrics). Pure observer: collector-backed instruments
// read the already-maintained counters at encode time. Read engine series
// from the driver side, between Run calls; the fabric counters are atomic
// and safe mid-run.
func (o *Overlay) Registry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.CounterFunc("jxta_net_messages_total", "Messages accepted by the simulated fabric.",
		func() uint64 { return o.Net.Stats().Messages })
	reg.CounterFunc("jxta_net_bytes_total", "Payload bytes accepted by the simulated fabric.",
		func() uint64 { return o.Net.Stats().Bytes })
	reg.CounterFunc("jxta_net_dropped_total", "Deliveries dropped: loss injection plus sends to detached peers.",
		func() uint64 { return o.Net.Stats().Dropped })
	reg.GaugeFunc("jxta_sim_shards", "Engine shards (1 = serial scheduler).",
		func() float64 {
			if o.sharded == nil {
				return 1
			}
			return float64(o.sharded.Shards())
		})
	if o.sharded == nil {
		return reg
	}
	ss := o.sharded
	reg.CounterFunc("jxta_sim_windows_total", "Shard execution windows run.",
		func() uint64 { return ss.ParallelStats().Windows })
	reg.CounterFunc("jxta_sim_events_total", "Events executed inside shard windows.",
		func() uint64 { return ss.ParallelStats().TotalEvents })
	reg.CounterFunc("jxta_sim_critical_events_total", "Per-window maxima summed: the parallel critical path in events.",
		func() uint64 { return ss.ParallelStats().CriticalEvents })
	reg.CounterFunc("jxta_sim_cross_shard_events_total", "Events exchanged through the window-barrier queues.",
		func() uint64 { return ss.ParallelStats().CrossShard })
	reg.CounterFunc("jxta_sim_busy_shard_sum_total", "Per-window busy-shard counts summed (mean busy = this over windows).",
		func() uint64 { return ss.ParallelStats().BusyShardSum })
	reg.CounterFuncs("jxta_sim_shard_steps_total", "Events executed, per shard.", "shard",
		func(emit func(string, uint64)) {
			for i := 0; i < ss.Shards(); i++ {
				emit(strconv.Itoa(i), ss.Shard(i).Steps())
			}
		})
	reg.GaugeFunc("jxta_sim_max_busy_shards", "Largest number of concurrently busy shards seen.",
		func() float64 { return float64(ss.ParallelStats().MaxBusy) })
	reg.GaugeFunc("jxta_sim_speedup_bound", "TotalEvents/CriticalEvents: the workload's achievable speedup.",
		func() float64 { return ss.ParallelStats().SpeedupBound() })
	return reg
}

// Nodes returns every deployed peer, rendezvous first — the scrape set for
// per-node metrics collection.
func (o *Overlay) Nodes() []*node.Node {
	out := make([]*node.Node, 0, len(o.Rdvs)+len(o.Edges))
	out = append(out, o.Rdvs...)
	out = append(out, o.Edges...)
	return out
}

// StartAll starts every deployed peer. Edges added afterwards start
// automatically (live joins).
func (o *Overlay) StartAll() {
	o.started = true
	for _, n := range o.Rdvs {
		n.Start()
	}
	for _, n := range o.Edges {
		n.Start()
	}
}

// StopAll stops every peer gracefully.
func (o *Overlay) StopAll() {
	o.started = false
	for _, n := range o.Edges {
		n.Stop()
	}
	for _, n := range o.Rdvs {
		n.Stop()
	}
}

// KillNode crashes a peer abruptly: nothing is sent — no lease cancel, no
// handoff — and the transport detaches (node.Kill closes the endpoint,
// which removes a Sim endpoint from the network), so messages delivered
// while it is down are lost and remote peers discover the death by their
// own timeouts, as on a real testbed.
func (o *Overlay) KillNode(n *node.Node) {
	n.Kill()
}

// KillRdv crashes a rendezvous peer abruptly (churn experiments).
func (o *Overlay) KillRdv(i int) { o.KillNode(o.Rdvs[i]) }

// RestartNode cold-restarts a peer in place, re-attaching its transport
// endpoint first if the peer had been killed. The peer keeps its identity
// (ID, RNG stream, address) but rejoins the overlay with fresh protocol
// state, so a mass-failure scenario can heal through staged rejoins.
func (o *Overlay) RestartNode(n *node.Node) {
	if sim, ok := n.Endpoint.Transport().(*transport.Sim); ok {
		o.Net.Reattach(sim)
	}
	n.Restart()
}

// RestartRdv restarts the i-th rendezvous peer (see RestartNode).
func (o *Overlay) RestartRdv(i int) { o.RestartNode(o.Rdvs[i]) }
