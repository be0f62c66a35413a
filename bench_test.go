// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§4), at reduced scale so `go test -bench=.` completes in
// minutes. Full-scale regeneration — the paper's exact r values and
// durations — is cmd/jxta-bench's job; PERFORMANCE_HISTORY.md records those runs.
package jxta

import (
	"strconv"
	"testing"
	"time"

	"jxta/internal/experiments"
	"jxta/internal/ids"
	"jxta/internal/topology"
)

// BenchmarkTable1ReplicaExample regenerates Table 1 / Figure 2: the replica
// function worked example plus the O(1)-publish / 4-message-lookup counts
// over a converged 6-rendezvous overlay.
func BenchmarkTable1ReplicaExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Pos != 3 {
			b.Fatalf("replica position %d, want 3", res.Pos)
		}
		b.ReportMetric(float64(res.PublishMsgs), "publish-msgs")
		b.ReportMetric(float64(res.LookupMsgs), "lookup-msgs")
		b.ReportMetric(res.LatencyMs, "lookup-ms")
	}
}

// BenchmarkFig3LeftPeerview regenerates a Figure 3 (left) curve: peerview
// size over time (scaled: r=80, 30 virtual minutes; paper: up to r=580 over
// 60-120 minutes).
func BenchmarkFig3LeftPeerview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPeerview(experiments.PeerviewSpec{
			R: 80, Topology: topology.Chain,
			Duration: 30 * time.Minute, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MaxSize), "max-l")
		b.ReportMetric(res.PlateauMean, "plateau-l")
	}
}

// BenchmarkFig3LeftTree is the tree-topology variant (the paper found the
// bootstrap shape has no significant influence).
func BenchmarkFig3LeftTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPeerview(experiments.PeerviewSpec{
			R: 80, Topology: topology.Tree,
			Duration: 30 * time.Minute, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PlateauMean, "plateau-l")
	}
}

// BenchmarkFig3RightEvents regenerates Figure 3 (right): the add/remove
// event distribution of one rendezvous' local peerview (scaled: r=80).
func BenchmarkFig3RightEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3Right(80, 45*time.Minute, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		adds, removes := res.Events.Counts()
		b.ReportMetric(float64(adds), "adds")
		b.ReportMetric(float64(removes), "removes")
		b.ReportMetric(float64(res.Events.DistinctPeers()), "distinct-peers")
	}
}

// BenchmarkFig4LeftTunedExpiry regenerates Figure 4 (left): default vs
// tuned PVE_EXPIRATION at reduced scale (r=30).
func BenchmarkFig4LeftTunedExpiry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		def, tuned, err := experiments.Fig4Left(30, 40*time.Minute, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(def.PlateauMean, "default-plateau-l")
		b.ReportMetric(float64(tuned.FinalSize), "tuned-final-l")
		b.ReportMetric(tuned.ReachedMaxAt.Minutes(), "tuned-t1-min")
	}
}

// BenchmarkFig4RightDiscoveryA regenerates one configuration-A point of
// Figure 4 (right): discovery latency without noise (r=50, the knee of the
// paper's curve).
func BenchmarkFig4RightDiscoveryA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDiscovery(experiments.DiscoverySpec{
			R: 50, Queries: 50, Seed: int64(i), Converge: 15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanMs, "discover-ms")
	}
}

// BenchmarkFig4RightDiscoveryB is the configuration-B point: 50 noiser
// edges publishing 5000 fake advertisements (r=5, the paper's maximum-
// overhead point).
func BenchmarkFig4RightDiscoveryB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDiscovery(experiments.DiscoverySpec{
			R: 5, Noise: true, Queries: 50, Seed: int64(i),
			Converge: 15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanMs, "discover-ms")
	}
}

// BenchmarkFig4RightWalkRegime measures the inconsistent-peerview regime
// (r=150 > the consistency threshold): queries fall back to the O(r) walk.
func BenchmarkFig4RightWalkRegime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDiscovery(experiments.DiscoverySpec{
			R: 150, Queries: 50, Seed: int64(i), Converge: 45 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanMs, "discover-ms")
		b.ReportMetric(100*res.WalkFraction, "walk-pct")
	}
}

// BenchmarkComplexityLCDHTvsChord measures the §3.3 complexity contrast:
// the LC-DHT's messages per lookup over the Table 1 overlay, and Chord's
// hops and flooding's messages per lookup from the routing bake-off.
func BenchmarkComplexityLCDHTvsChord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiments.Table1(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.RunRouting(experiments.RoutingSpec{
			N: 32, Keys: 8, Lookups: 16, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t1.LookupMsgs), "lcdht-msgs-op")
		for _, pt := range res.Points {
			switch pt.Backend {
			case "chord":
				b.ReportMetric(pt.MeanHops, "chord-hops")
			case "flood":
				b.ReportMetric(pt.LookupMsgsPerOp, "flood-msgs-op")
			}
		}
	}
}

// BenchmarkChurnDiscovery measures the paper's future-work extension:
// discovery while rendezvous peers crash.
func BenchmarkChurnDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunChurn(experiments.ChurnSpec{
			R: 20, Kills: 5, Queries: 40, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Succeeded), "queries-ok")
		b.ReportMetric(res.Latency.Mean(), "discover-ms")
	}
}

// BenchmarkOverlayBoot measures deploying and converging a 50-rendezvous
// overlay end to end — the simulator's bulk workload.
func BenchmarkOverlayBoot(b *testing.B) {
	b.ReportAllocs()
	var steps uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulation(SimOptions{Seed: int64(i), Rendezvous: 50})
		if err != nil {
			b.Fatal(err)
		}
		sim.Start()
		sim.Run(10 * time.Minute)
		steps += sim.Steps()
		sim.Stop()
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(float64(steps)/wall, "events/sec")
	}
}

// BenchmarkFacadePublishDiscover measures one publish + discover round trip
// through the public API on a small converged overlay.
func BenchmarkFacadePublishDiscover(b *testing.B) {
	sim, err := NewSimulation(SimOptions{Seed: 1, Rendezvous: 6,
		Edges: []EdgeSpec{{AttachTo: 0}, {AttachTo: 5}}})
	if err != nil {
		b.Fatal(err)
	}
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)
	pub, search := sim.Edge(0), sim.Edge(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Names must be unique per iteration: recycling a small name set
		// would re-publish existing advertisements and measure cache
		// replacement instead of fresh publish+discover. A short lifetime
		// keeps the stores at a steady size (each iteration advances >30s
		// of virtual time), so ns/op stays comparable across b.N values.
		name := "bench-" + strconv.Itoa(i)
		adv := &Resource{
			ResID: ids.FromName(ids.KindAdv, name),
			Name:  name,
		}
		pub.Publish(adv, 2*time.Minute)
		sim.Run(30 * time.Second)
		search.FlushCache()
		if _, _, err := search.Discover("Resource", "Name", name, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQuery measures the complex-query extension: a range lookup
// that walks the whole rendezvous view.
func BenchmarkRangeQuery(b *testing.B) {
	sim, err := NewSimulation(SimOptions{Seed: 1, Rendezvous: 10,
		Edges: []EdgeSpec{{AttachTo: 0}, {AttachTo: 9}}})
	if err != nil {
		b.Fatal(err)
	}
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)
	for i := 0; i < 20; i++ {
		sim.Edge(0).PublishResource(
			"node-"+string(rune('a'+i)),
			map[string]string{"RAM": []string{"1024", "2048", "4096"}[i%3]})
	}
	sim.Run(time.Minute)
	searcher := sim.Edge(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searcher.FlushCache()
		advs, _, err := searcher.DiscoverRange("Resource", "RAM", 2000, 5000, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(advs) == 0 {
			b.Fatal("no range results")
		}
	}
}
