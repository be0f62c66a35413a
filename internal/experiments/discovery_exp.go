package experiments

import (
	"fmt"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/endpoint"
	"jxta/internal/message"
	"jxta/internal/node"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// Configuration B's noise (§4.2): noisers edge peers attached to noiseRdvs
// rendezvous, each publishing fakeAdvs advertisements (f in the paper;
// 50*100 = 5000 total).
const (
	noisers   = 50
	noiseRdvs = 5
	fakeAdvs  = 100
)

// advertisements is how many distinct advertisements the publisher
// publishes; queries cycle over them. The paper used a single
// advertisement, which makes the walk distance one random draw; using
// several averages the LC-DHT rank mismatch so the r-sweep curve is
// statistically meaningful. PERFORMANCE_HISTORY.md records this
// substitution ("Substitution on record").
const advertisements = 20

// DiscoverySpec parameterizes one point of the Figure 4 (right) sweep.
type DiscoverySpec struct {
	// R is the rendezvous count.
	R int
	// Noise enables configuration B (noisers, noiseRdvs, fakeAdvs).
	Noise bool
	// Queries is the number of consecutive discovery operations (paper:
	// 100), each followed by a searcher cache flush.
	Queries int
	// DisableWalk turns off the LC-DHT fallback walk (ablation only).
	DisableWalk bool
	// Converge is how long to let peerviews settle before measuring
	// ("jobs delay their execution after local peerviews entered phase 3",
	// i.e. ~2x PVE_EXPIRATION). Zero derives it from r.
	Converge time.Duration
	// Shards partitions the simulated network across per-core shard
	// schedulers (see deploy.Spec.Shards). 0 or 1 keeps the serial engine;
	// results are deterministic per (Seed, Shards).
	Shards int
	// Seed is the master determinism seed.
	Seed int64
}

func (s DiscoverySpec) withDefaults() DiscoverySpec {
	if s.Converge <= 0 {
		// Small overlays stabilize quickly; large ones need the paper's
		// phase-3 wait (~2x PVE_EXPIRATION = 40 min).
		if s.R <= 50 {
			s.Converge = 15 * time.Minute
		} else {
			s.Converge = 45 * time.Minute
		}
	}
	return s
}

// DiscoveryResult is one point of Figure 4 (right).
type DiscoveryResult struct {
	Spec DiscoverySpec
	// PhaseStats holds the measured lookups: Latency collects the
	// per-query discovery times, Timeouts the queries that never completed.
	PhaseStats
	// MeanMs is the average time to discover the advertisement — the
	// figure's y axis.
	MeanMs float64
	// WalkFraction is the share of measured queries that needed the O(r)
	// walk fallback (0 when property (2) holds).
	WalkFraction float64
	RunCost
}

// RunDiscovery executes one §4.2 benchmark point: a publisher edge on the
// first rendezvous, a searcher edge on the last, optional noisers, then
// Queries consecutive lookups with a cache flush after each.
func RunDiscovery(spec DiscoverySpec) (DiscoveryResult, error) {
	spec = spec.withDefaults()
	if spec.R < 1 {
		return DiscoveryResult{}, fmt.Errorf("experiments: r=%d", spec.R)
	}
	edges := []deploy.EdgeGroup{
		{AttachTo: 0, Count: 1, Prefix: "publisher"},
		{AttachTo: spec.R - 1, Count: 1, Prefix: "searcher"},
	}
	if spec.Noise {
		// Noisers spread over the first noiseRdvs rendezvous ("50 edge
		// peers will connect to 5 rendezvous peers amongst the r
		// available").
		nr := min(noiseRdvs, spec.R)
		per := noisers / nr
		extra := noisers % nr
		for i := 0; i < nr; i++ {
			count := per
			if i < extra {
				count++
			}
			if count > 0 {
				edges = append(edges, deploy.EdgeGroup{
					AttachTo: i * spec.R / nr,
					Count:    count,
					Prefix:   fmt.Sprintf("noiser%d-", i),
				})
			}
		}
	}
	discoCfg := discovery.DefaultConfig() // enables the SRDI scan-cost model
	discoCfg.DisableWalk = spec.DisableWalk
	o, err := deploy.Build(deploy.Spec{
		Seed:      spec.Seed,
		NumRdv:    spec.R,
		Shards:    spec.Shards,
		Topology:  topology.Chain,
		Discovery: discoCfg,
		Edges:     edges,
	})
	if err != nil {
		return DiscoveryResult{}, err
	}
	o.StartAll()
	publisher, searcher := o.Edges[0], o.Edges[1]

	// "Publishing and searching jobs delay their execution time after that
	// local peerviews of rendezvous peers entered in their phase 3": wait
	// for the peerviews to settle, then publish, then let the SRDI pushes
	// and replications land before measuring.
	o.Sched.Run(spec.Converge)
	advs := resources("target-", "Test", advertisements)
	publish([]*node.Node{publisher}, [][]*advertisement.Resource{advs}, 0)
	if spec.Noise {
		noise := make([][]*advertisement.Resource, len(o.Edges)-2)
		for ni := range noise {
			noise[ni] = resources(fmt.Sprintf("fake-%d-", ni), fmt.Sprintf("fake-%d-", ni), fakeAdvs)
		}
		publish(o.Edges[2:], noise, 0)
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)

	res := DiscoveryResult{Spec: spec}
	walksBefore := totalWalks(o)

	// The measurement loop runs inside the simulation: each response (or
	// timeout) flushes the cache and issues the next query at once.
	res.PhaseStats, err = lookupPhase{
		peers:        []*node.Node{searcher},
		targets:      [][]string{cycle(advs, spec.Queries)},
		afterRefusal: time.Second,
		horizon:      4 * time.Hour,
	}.run(o)
	if err != nil {
		return res, err
	}
	res.MeanMs = res.Latency.Mean()
	if spec.Queries > 0 {
		res.WalkFraction = float64(totalWalks(o)-walksBefore) / float64(spec.Queries)
	}
	res.RunCost = costOf(o)
	o.StopAll()
	return res, nil
}

func totalWalks(o *deploy.Overlay) uint64 {
	var walks uint64
	for _, r := range o.Rdvs {
		walks += r.Discovery.Stats.WalksStarted
	}
	return walks
}

// Fig4Right runs the full sweep for one configuration (A: noise=false,
// B: noise=true), every point on its own core (Sweep); results are in the
// order of rs.
func Fig4Right(rs []int, noise bool, queries int, seed int64) ([]DiscoveryResult, error) {
	out := make([]DiscoveryResult, len(rs))
	err := Sweep(len(rs), func(i int) error {
		res, err := RunDiscovery(DiscoverySpec{R: rs[i], Noise: noise,
			Queries: queries, Seed: seed + int64(rs[i])})
		out[i] = res
		return err
	})
	return out, err
}

// Table1 reproduces the §3.3 worked example programmatically: the replica
// position for the paper's literal numbers and a live 6-rendezvous overlay
// exercising the full publish/lookup path of Figure 2.
type Table1Result struct {
	// Pos is ReplicaPos(116, 200, 6) — the paper computes 3 (peer R4).
	Pos int
	// PublishMsgs and LookupMsgs count the messages of the two operations
	// over a converged consistent overlay (paper: 2 and 4).
	PublishMsgs int
	LookupMsgs  int
	// LatencyMs is the measured single-lookup latency.
	LatencyMs float64
}

// Table1 runs the worked example.
func Table1(seed int64) (Table1Result, error) {
	res := Table1Result{Pos: discovery.ReplicaPos(116, 200, 6)}
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		NumRdv:   6,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "e1-"},
			{AttachTo: 1, Count: 1, Prefix: "e2-"},
		},
	})
	if err != nil {
		return res, err
	}
	o.StartAll()
	o.Sched.Run(15 * time.Minute) // small overlay: property (2) holds
	e1, e2 := o.Edges[0], o.Edges[1]

	// Count publish messages: the SRDI push and its replication only.
	res.PublishMsgs = countMessages(o, func(m *message.Message) bool {
		return endpoint.ServiceOf(m) == discovery.SRDIService
	}, func() {
		e1.Discovery.Publish(&advertisement.Peer{PeerID: e1.ID, Name: "Test"}, 0)
		o.Sched.Run(o.Sched.Now() + 30*time.Second)
	})

	var elapsed time.Duration
	got := false
	lookupMsgs := countMessages(o, func(m *message.Message) bool {
		switch endpoint.ServiceOf(m) {
		case resolver.ServiceName:
			return resolver.HandlerOf(m) == discovery.HandlerName
		case rendezvous.WalkService:
			return true
		}
		return false
	}, func() {
		e2.Discovery.Query("Peer", "Name", "Test", func(r discovery.Result) {
			elapsed = r.Elapsed
			got = true
		}, nil)
		o.Sched.Run(o.Sched.Now() + 30*time.Second)
	})
	if !got {
		return res, fmt.Errorf("experiments: Table 1 lookup failed")
	}
	res.LookupMsgs = lookupMsgs
	res.LatencyMs = float64(elapsed) / float64(time.Millisecond)
	o.StopAll()
	return res, nil
}

// countMessages counts network messages matching the classifier while fn
// runs. Matching composes with any previously installed OnSend hook.
func countMessages(o *deploy.Overlay, match func(*message.Message) bool, fn func()) int {
	count := 0
	prev := o.Net.OnSend
	o.Net.OnSend = func(from, to transport.Addr, m *message.Message) {
		if prev != nil {
			prev(from, to, m)
		}
		if match(m) {
			count++
		}
	}
	fn()
	o.Net.OnSend = prev
	return count
}
