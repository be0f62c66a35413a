package experiments

import (
	"fmt"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/chord"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/flood"
	"jxta/internal/ids"
	"jxta/internal/metrics"
	"jxta/internal/netmodel"
	"jxta/internal/routing"
	"jxta/internal/simnet"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// RoutingSpec parameterizes the structured-routing bake-off: the same
// publish / lookup / maintenance scenario driven through each
// routing.Backend at equal scale, quantifying the §3.3 trade-off space the
// paper describes qualitatively (flooding vs. loosely-consistent DHT vs.
// structured DHTs). The comparison is steady-state routing cost, as §3.3's
// is: no member fails, and the baselines have no failure model.
type RoutingSpec struct {
	// N is the overlay size (the paper's r: every member is a rendezvous-
	// class peer).
	N int
	// Keys is how many distinct keys are published before measuring.
	Keys int
	// Lookups is the number of lookup operations in the lookup wave.
	Lookups int
	// Converge is the settle window after deployment (peerview phase 3
	// for SRDI, bootstrap lookups for Kademlia). Zero derives from N.
	Converge time.Duration
	// MaintWindow is the idle window over which maintenance traffic is
	// measured (default 10 minutes).
	MaintWindow time.Duration
	// Seed is the master determinism seed.
	Seed int64
}

// routingBackends are the overlays the bake-off runs, in order.
var routingBackends = []string{"flood", "srdi", "chord", "kademlia"}

func (s RoutingSpec) withDefaults() RoutingSpec {
	if s.Converge <= 0 {
		if s.N <= 50 {
			s.Converge = 15 * time.Minute
		} else {
			s.Converge = 45 * time.Minute
		}
	}
	if s.MaintWindow <= 0 {
		s.MaintWindow = 10 * time.Minute
	}
	return s
}

// RoutingPoint is one backend's scorecard.
type RoutingPoint struct {
	Backend string
	N       int

	// PublishMsgsPerOp is network messages per publish, settling traffic
	// included (the LC-DHT's O(1) claim vs. Kademlia's iterative store).
	PublishMsgsPerOp float64

	// Lookup wave.
	Lookups         int
	Success         int
	MeanHops        float64 // over successful lookups
	Latency         metrics.Samples
	LookupMsgsPerOp float64

	// MaintMsgsPerMin is idle-window maintenance traffic (peerview probes
	// + SRDI pushes for the JXTA stack, bucket refreshes for Kademlia,
	// zero for the static baselines).
	MaintMsgsPerMin float64
}

// RoutingResult is the full bake-off.
type RoutingResult struct {
	Spec   RoutingSpec
	Points []RoutingPoint
}

// RunRouting executes the bake-off. Each backend gets its own scheduler and
// network (message counters must not bleed across overlays) and its own
// seed lane: Spec.Seed plus 101 times its place in routingBackends.
func RunRouting(spec RoutingSpec) (RoutingResult, error) {
	spec = spec.withDefaults()
	if spec.N < 4 || spec.Keys < 1 {
		return RoutingResult{}, fmt.Errorf("experiments: routing N=%d keys=%d", spec.N, spec.Keys)
	}
	res := RoutingResult{Spec: spec}
	for i, name := range routingBackends {
		pt, err := runRoutingBackend(spec, name, spec.Seed+101*int64(i+1))
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runRoutingBackend(spec RoutingSpec, name string, seed int64) (RoutingPoint, error) {
	var (
		b   routing.Backend
		kad *routing.Kademlia // the one backend with a maintenance round to force
		eng simnet.Engine
		net *transport.Network
		err error
	)
	settle := spec.Converge
	if name == "srdi" {
		var sb *srdiBackend
		if sb, err = buildSRDIBackend(spec, seed); err == nil {
			b, eng, net = sb, sb.o.Sched, sb.o.Net
		}
	} else {
		sched := simnet.NewScheduler(seed)
		eng, net = sched, transport.NewNetwork(sched, netmodel.Grid5000())
		switch name {
		case "flood":
			b, err = flood.Build(sched, net, spec.N, 4)
			settle = time.Minute // static graph: nothing to converge
		case "chord":
			b, err = chord.Build(sched, net, spec.N)
			settle = time.Minute // fingers precomputed: static
		case "kademlia":
			if kad, err = routing.BuildKademlia(sched, net, spec.N); err == nil {
				kad.Bootstrap()
				b = kad
			}
		}
	}
	if err != nil {
		return RoutingPoint{}, fmt.Errorf("experiments: routing backend %s: %w", name, err)
	}
	eng.Run(eng.Now() + settle)

	pt := RoutingPoint{Backend: name, N: spec.N}

	// --- Publish phase: Keys keys from deterministic spread originators.
	before := net.Stats().Messages
	for k := 0; k < spec.Keys; k++ {
		b.Publish((k*31)%spec.N, routingKey(k))
	}
	eng.Run(eng.Now() + 2*time.Minute) // let replication/stores settle
	pt.PublishMsgsPerOp = float64(net.Stats().Messages-before) / float64(spec.Keys)

	// --- Lookup wave. The message delta includes background
	// maintenance running inside the wave window (SRDI pushes, peerview
	// probes, bucket refreshes) — deliberately: that is each system's real
	// steady-state cost of serving lookups; the idle window below isolates
	// the maintenance-only component.
	before = net.Stats().Messages
	ok, hops, lat := runLookupWave(spec, b, eng)
	pt.Lookups = spec.Lookups
	pt.Success = ok
	pt.MeanHops = hops
	pt.Latency = lat
	pt.LookupMsgsPerOp = float64(net.Stats().Messages-before) / float64(spec.Lookups)

	// --- Maintenance window: idle traffic.
	before = net.Stats().Messages
	if kad != nil {
		kad.Maintain()
	}
	eng.Run(eng.Now() + spec.MaintWindow)
	pt.MaintMsgsPerMin = float64(net.Stats().Messages-before) / spec.MaintWindow.Minutes()
	return pt, nil
}

func routingKey(k int) string { return fmt.Sprintf("bakeoff-key-%d", k) }

// runLookupWave issues spec.Lookups staggered lookups from spread
// originators and runs the clock to a deadline past the last of them.
// Returns successes, mean hops over successes, and the latency samples.
func runLookupWave(spec RoutingSpec, b routing.Backend, eng simnet.Engine) (int, float64, metrics.Samples) {
	ok, totalHops := 0, 0
	var lat metrics.Samples
	for i := 0; i < spec.Lookups; i++ {
		origin := (i*17 + 5) % spec.N
		key := routingKey(i % spec.Keys)
		eng.After(time.Duration(i)*200*time.Millisecond, func() {
			b.Lookup(origin, key, func(r routing.Result) {
				if r.OK {
					ok++
					totalHops += r.Hops
					lat.AddDuration(r.Latency)
				}
			})
		})
	}
	// Deadline generous enough for full-TTL floods and Kademlia lookups
	// that time out on a contact; callbacks that never fire count as
	// failures.
	eng.Run(eng.Now() + time.Duration(spec.Lookups)*200*time.Millisecond + 2*time.Minute)
	mean := 0.0
	if ok > 0 {
		mean = float64(totalHops) / float64(ok)
	}
	return ok, mean, lat
}

// srdiBackend adapts the full JXTA stack — peerview, rendezvous tier, SRDI
// replication and the resolver walk — to routing.Backend. It lives here,
// beside the harness that drives it, so that internal/routing does not
// depend on the JXTA stack; the adapter needs discovery and deploy.
type srdiBackend struct {
	o *deploy.Overlay
}

func buildSRDIBackend(spec RoutingSpec, seed int64) (*srdiBackend, error) {
	o, err := deploy.Build(deploy.Spec{
		Seed:      seed,
		NumRdv:    spec.N,
		Topology:  topology.Chain,
		Discovery: discovery.DefaultConfig(),
	})
	if err != nil {
		return nil, err
	}
	o.StartAll()
	return &srdiBackend{o: o}, nil
}

// Publish stores the advertisement at rendezvous i: local index + SRDI
// replication to the replica peer (the paper's O(1) publish).
func (s *srdiBackend) Publish(from int, key string) {
	s.o.Rdvs[from].Discovery.Publish(&advertisement.Resource{
		ResID: ids.FromName(ids.KindAdv, key),
		Name:  key,
	}, 0)
}

// Lookup resolves through the LC-DHT: replica forward, then the O(r) walk
// on a miss. Hops are resolver forwards (echoed by the response).
func (s *srdiBackend) Lookup(from int, key string, cb func(routing.Result)) {
	err := s.o.Rdvs[from].Discovery.QueryRemote("Resource", "Name", key,
		func(r discovery.Result) {
			cb(routing.Result{OK: true, Hops: r.Hops, Latency: r.Elapsed})
		},
		func() { cb(routing.Result{OK: false}) })
	if err != nil {
		cb(routing.Result{OK: false})
	}
}
