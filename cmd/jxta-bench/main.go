// Command jxta-bench regenerates every table and figure of the paper's
// evaluation section (§4) on the simulated Grid'5000 substrate.
//
// Usage:
//
//	jxta-bench -exp all                 # everything, full scale (minutes)
//	jxta-bench -exp fig3left -quick     # scaled-down fast pass
//	jxta-bench -exp fig4right -csv      # machine-readable series
//	jxta-bench -exp perf -json BENCH_PR1.json   # engine perf point
//	jxta-bench -exp fig3left -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: table1, fig3left, fig3right, fig4left, fig4right,
// baselines, churn, volatility, ablations, bandwidth, perf, scale, all.
// -json writes a machine-readable summary of every selected experiment;
// each PR appends its `perf` point to the benchmark trajectory
// (BENCH_<PR>.json, see PERFORMANCE.md).
//
// scale measures the sharded conservative-PDES engine (SimOptions.Shards):
// events/sec and wall time vs shard count on leased-edge workloads at
// r=250 and r=1,000, a GOMAXPROCS speedup curve at fixed shard count, and
// serial-vs-sharded on the perf trajectory's peerview-r80-30min workload.
// Per point it reports the hardware-independent speedup bound (total
// events over barrier critical-path events) alongside machine-dependent
// wall numbers.
//
// bandwidth sweeps the streaming layer (reliable JXTA sockets): throughput
// vs. message size (1 KiB–1 MiB) and RTT curves over the simulated
// Grid'5000 model, lossless and with 1% injected loss. The simnet numbers
// derive purely from virtual time, so the curve is bit-identical across
// runs with the same seed. Pass -live to also measure over real loopback
// TCP transports (wall-clock, machine-dependent, reported separately).
//
// churn runs the volatility pair: rolling rendezvous crashes while queries
// flow (the paper's §5 future-work scenario), then the recovery mode — a
// mass rendezvous failure healed by staged rejoins of the same peers
// through the service lifecycle's Restart, measuring discovery success and
// peerview re-convergence across the outage (golden-pinned for replay).
//
// volatility sweeps the self-healing rendezvous tier across kill rates (the
// paper-§5 axis): rendezvous crash on a timer with nobody spared, edges
// fail over to the peerview alternates their lease grants carried and —
// when a region loses every reachable rendezvous — deterministically elect
// one of themselves to promote in place. Each kill interval is measured
// twice: full attrition (victims never return; the tier survives only
// through promotion) and kill/rejoin churn (victims restart and bridge the
// healed tier back together). Reported per point: discovery success while
// the killing runs, promotions performed, the final live tier and its
// re-convergence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/experiments"
	"jxta/internal/metrics"
	"jxta/internal/plot"
	"jxta/internal/topology"
)

var (
	expFlag        = flag.String("exp", "all", "experiment: table1|fig3left|fig3right|fig4left|fig4right|baselines|churn|volatility|ablations|bandwidth|perf|scale|routing|all")
	quickFlag      = flag.Bool("quick", false, "scaled-down parameters (seconds instead of minutes)")
	maxHeapPerEdge = flag.Float64("maxheapedge", 0, "scale: fail if the lean memory point's heap_bytes_per_edge exceeds this many bytes (0 disables; the CI memory smoke pins it)")
	liveFlag       = flag.Bool("live", false, "bandwidth: also measure over real loopback TCP (wall-clock, nondeterministic)")
	csvFlag        = flag.Bool("csv", false, "emit CSV instead of ASCII plots")
	seedFlag       = flag.Int64("seed", 42, "master determinism seed")
	jsonFlag       = flag.String("json", "", "write a JSON summary of the selected experiments to this file")
	cpuProfile     = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile     = flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
)

func main() {
	// All failure paths return through run so deferred profile writers
	// flush before the process exits.
	os.Exit(run())
}

func run() int {
	flag.Parse()
	start := time.Now()
	if *memProfile != "" {
		// Deferred so the heap profile is written on failure paths too.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	runners := map[string]func() (any, error){
		"table1":     table1,
		"fig3left":   fig3Left,
		"fig3right":  fig3Right,
		"fig4left":   fig4Left,
		"fig4right":  fig4Right,
		"baselines":  baselines,
		"churn":      churn,
		"volatility": volatility,
		"ablations":  ablations,
		"bandwidth":  bandwidth,
		"perf":       perf,
		"scale":      scale,
		"routing":    routingExp,
	}
	order := []string{"table1", "fig3left", "fig3right", "fig4left", "fig4right", "baselines", "churn", "volatility", "ablations", "bandwidth", "perf", "scale", "routing"}
	var selected []string
	if *expFlag == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				return 2
			}
			selected = append(selected, name)
		}
	}
	summaries := make(map[string]any, len(selected))
	for _, name := range selected {
		fmt.Printf("==== %s ====\n", name)
		summary, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		summaries[name] = summary
		fmt.Println()
	}
	if *jsonFlag != "" {
		doc := map[string]any{
			"seed":        *seedFlag,
			"quick":       *quickFlag,
			"wall_ms":     float64(time.Since(start)) / float64(time.Millisecond),
			"experiments": summaries,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonFlag)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
	return 0
}

// perfPoint is one engine-throughput measurement for the benchmark
// trajectory (PERFORMANCE.md).
type perfPoint struct {
	Workload     string  `json:"workload"`
	WallMs       float64 `json:"wall_ms"`
	VirtualMin   float64 `json:"virtual_min"`
	Steps        uint64  `json:"steps"`
	EventsPerSec float64 `json:"events_per_sec"`
	Mallocs      uint64  `json:"mallocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Messages     uint64  `json:"messages"`
	// NodeMetrics is the per-node runtime-metrics section: population
	// totals plus sampled full snapshots (see experiments.CollectNodeMetrics).
	NodeMetrics *experiments.NodeMetricsSummary `json:"node_metrics,omitempty"`
}

// perf measures raw engine throughput on the two benchmark workloads the
// PR trajectory tracks: a 50-rendezvous overlay boot and an 80-rendezvous
// peerview convergence (-quick shrinks both; trajectory points should use
// the full scale).
func perf() (any, error) {
	bootR, bootDur := 50, 10*time.Minute
	pvR, pvDur := 80, 30*time.Minute
	if *quickFlag {
		bootR, bootDur = 20, 5*time.Minute
		pvR, pvDur = 30, 10*time.Minute
	}
	var points []perfPoint

	measure := func(workload string, virtual time.Duration, run func() (steps, msgs uint64, nm *experiments.NodeMetricsSummary, err error)) error {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		steps, msgs, nm, err := run()
		wall := time.Since(start)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		points = append(points, perfPoint{
			Workload:     workload,
			WallMs:       float64(wall) / float64(time.Millisecond),
			VirtualMin:   virtual.Minutes(),
			Steps:        steps,
			EventsPerSec: float64(steps) / wall.Seconds(),
			Mallocs:      after.Mallocs - before.Mallocs,
			AllocBytes:   after.TotalAlloc - before.TotalAlloc,
			Messages:     msgs,
			NodeMetrics:  nm,
		})
		return nil
	}

	if err := measure(fmt.Sprintf("overlay-boot-r%d", bootR), bootDur, func() (uint64, uint64, *experiments.NodeMetricsSummary, error) {
		o, err := deploy.Build(deploy.Spec{Seed: *seedFlag, NumRdv: bootR, Topology: topology.Chain})
		if err != nil {
			return 0, 0, nil, err
		}
		o.StartAll()
		o.Sched.Run(bootDur)
		steps, msgs := o.Sched.Steps(), o.Net.Stats().Messages
		nm := experiments.CollectNodeMetrics(o, 1)
		o.StopAll()
		return steps, msgs, nm, nil
	}); err != nil {
		return nil, err
	}

	if err := measure(fmt.Sprintf("peerview-r%d-%dmin", pvR, int(pvDur.Minutes())), pvDur, func() (uint64, uint64, *experiments.NodeMetricsSummary, error) {
		res, err := experiments.RunPeerview(experiments.PeerviewSpec{
			R: pvR, Topology: topology.Chain,
			Duration: pvDur, Seed: *seedFlag,
		})
		if err != nil {
			return 0, 0, nil, err
		}
		return res.Steps, res.NetStats.Messages, res.NodeMetrics, nil
	}); err != nil {
		return nil, err
	}

	for _, p := range points {
		fmt.Printf("  %-22s wall=%8.1f ms  steps=%-9d events/sec=%-12.0f mallocs=%-9d msgs=%d\n",
			p.Workload, p.WallMs, p.Steps, p.EventsPerSec, p.Mallocs, p.Messages)
	}
	return points, nil
}

// scalePoint is one sharded-engine scaling measurement for the benchmark
// trajectory (PERFORMANCE.md, BENCH_PR6.json). Wall-clock fields are
// hardware-dependent; SpeedupBound is the workload's achievable speedup on
// an ideal one-core-per-shard machine (total events over barrier-model
// critical-path events), so the trajectory stays comparable across boxes.
type scalePoint struct {
	Workload     string  `json:"workload"`
	R            int     `json:"r"`
	Edges        int     `json:"edges"`
	Shards       int     `json:"shards"`
	Lean         bool    `json:"lean,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	WallMs       float64 `json:"wall_ms"`
	Steps        uint64  `json:"steps"`
	EventsPerSec float64 `json:"events_per_sec"`
	Windows      uint64  `json:"windows"`
	AvgBusy      float64 `json:"avg_busy"`
	CrossShard   uint64  `json:"cross_shard"`
	SpeedupBound float64 `json:"speedup_bound"`
	SpeedupWall  float64 `json:"speedup_wall"`
	// HeapBytesPerEdge is the live-heap cost of one simulated edge
	// (experiments.ScaleResult.HeapBytesPerEdge); zero when not measured.
	HeapBytesPerEdge float64 `json:"heap_bytes_per_edge,omitempty"`
	// NodeMetrics is the per-node runtime-metrics section: population
	// totals plus sampled full snapshots (see experiments.CollectNodeMetrics).
	NodeMetrics *experiments.NodeMetricsSummary `json:"node_metrics,omitempty"`
}

// scale measures the sharded conservative-PDES engine: events/sec and wall
// time vs shard count on a leased-edge workload (r=250 / 10k edges), the
// first r=1,000 trajectory point, a GOMAXPROCS speedup curve at fixed shard
// count, and the serial-vs-sharded comparison on the perf trajectory's own
// peerview-r80-30min workload.
func scale() (any, error) {
	sweepR, sweepEdges, sweepDur := 250, 10_000, 10*time.Minute
	sweepShards := []int{1, 2, 4, 8}
	gmps := []int{1, 2, 4, 8}
	pvR, pvDur := 80, 30*time.Minute
	pvShards := []int{1, 8, 9}
	bigR, bigEdges := 1000, 20_000
	if *quickFlag {
		sweepR, sweepEdges, sweepDur = 18, 54, 5*time.Minute
		sweepShards = []int{1, 2}
		gmps = []int{1, 2}
		pvR, pvDur = 20, 6*time.Minute
		pvShards = []int{1, 2}
		bigR = 0 // r=1,000 is a full-scale-only point
	}
	summary := map[string]any{}
	if *csvFlag {
		fmt.Println("workload,r,edges,shards,lean,gomaxprocs,wallMs,steps,eventsPerSec,windows,avgBusy,crossShard,speedupBound,speedupWall,heapBytesPerEdge")
	}
	emit := func(p scalePoint) {
		if *csvFlag {
			fmt.Printf("%s,%d,%d,%d,%v,%d,%.1f,%d,%.0f,%d,%.2f,%d,%.2f,%.2f,%.0f\n",
				p.Workload, p.R, p.Edges, p.Shards, p.Lean, p.GOMAXPROCS, p.WallMs, p.Steps,
				p.EventsPerSec, p.Windows, p.AvgBusy, p.CrossShard, p.SpeedupBound, p.SpeedupWall, p.HeapBytesPerEdge)
			return
		}
		heap := ""
		if p.HeapBytesPerEdge > 0 {
			heap = fmt.Sprintf("  heap/edge=%.0f B", p.HeapBytesPerEdge)
		}
		fmt.Printf("  %-18s shards=%-2d gmp=%-2d wall=%9.1f ms  events/sec=%-9.0f bound=%-5.2f wallx=%-5.2f windows=%-7d avgBusy=%.2f%s\n",
			p.Workload, p.Shards, p.GOMAXPROCS, p.WallMs, p.EventsPerSec,
			p.SpeedupBound, p.SpeedupWall, p.Windows, p.AvgBusy, heap)
	}
	runOne := func(name string, spec experiments.ScaleSpec, serialEps float64) (scalePoint, error) {
		res, err := experiments.RunScale(spec)
		if err != nil {
			return scalePoint{}, err
		}
		p := scalePoint{
			Workload: name, R: spec.R, Edges: spec.Edges, Shards: res.Spec.Shards, Lean: spec.Lean,
			GOMAXPROCS: runtime.GOMAXPROCS(0), WallMs: res.WallMs, Steps: res.Steps,
			EventsPerSec: res.EventsPerSec, Windows: res.Windows, AvgBusy: res.AvgBusy,
			CrossShard: res.CrossShard, SpeedupBound: res.SpeedupBound,
			HeapBytesPerEdge: res.HeapBytesPerEdge,
			NodeMetrics:      res.NodeMetrics,
		}
		if p.SpeedupBound == 0 {
			p.SpeedupBound = 1 // serial engine: no windows, bound is unity
		}
		p.SpeedupWall = 1 // the baseline row of its workload
		if serialEps > 0 {
			p.SpeedupWall = p.EventsPerSec / serialEps
		}
		emit(p)
		return p, nil
	}

	// Shard sweep at a fixed leased-edge workload.
	var points []scalePoint
	serialEps := 0.0
	for _, shards := range sweepShards {
		p, err := runOne("edge-lease", experiments.ScaleSpec{
			R: sweepR, Edges: sweepEdges, Shards: shards,
			Duration: sweepDur, Seed: *seedFlag,
		}, serialEps)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			serialEps = p.EventsPerSec
		}
		points = append(points, p)
	}
	summary["shard_sweep"] = points

	// GOMAXPROCS curve at the highest shard count: same virtual run, only
	// the OS-thread budget varies (deterministic stats, varying wall time).
	curveShards := sweepShards[len(sweepShards)-1]
	var curve []scalePoint
	for _, gmp := range gmps {
		prev := runtime.GOMAXPROCS(gmp)
		p, err := runOne("edge-lease", experiments.ScaleSpec{
			R: sweepR, Edges: sweepEdges, Shards: curveShards,
			Duration: sweepDur, Seed: *seedFlag,
		}, serialEps)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		p.GOMAXPROCS = gmp
		curve = append(curve, p)
	}
	summary["gomaxprocs_curve"] = curve

	// The perf trajectory's own workload, serial vs sharded. 8 shards
	// carries a double-loaded shard (nine Grid'5000 sites on eight shards);
	// 9 shards places one site per shard.
	var pv []scalePoint
	pvSerial := 0.0
	for _, shards := range pvShards {
		start := time.Now()
		res, err := experiments.RunPeerview(experiments.PeerviewSpec{
			R: pvR, Topology: topology.Chain, Duration: pvDur,
			Seed: *seedFlag, Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		p := scalePoint{
			Workload: fmt.Sprintf("peerview-r%d-%dmin", pvR, int(pvDur.Minutes())),
			R:        pvR, Shards: shards, GOMAXPROCS: runtime.GOMAXPROCS(0),
			WallMs:       float64(wall.Nanoseconds()) / 1e6,
			Steps:        res.Steps,
			EventsPerSec: float64(res.Steps) / wall.Seconds(),
			Windows:      res.Parallel.Windows,
			CrossShard:   res.Parallel.CrossShard,
			SpeedupBound: res.Parallel.SpeedupBound(),
		}
		if res.Parallel.Windows > 0 {
			p.AvgBusy = float64(res.Parallel.BusyShardSum) / float64(res.Parallel.Windows)
		}
		if shards == 1 {
			pvSerial = p.EventsPerSec
			p.SpeedupWall = 1
		} else if pvSerial > 0 {
			p.SpeedupWall = p.EventsPerSec / pvSerial
		}
		emit(p)
		pv = append(pv, p)
	}
	summary["peerview"] = pv

	// The first r=1,000 trajectory point (≥10k leased edges).
	if bigR > 0 {
		var big []scalePoint
		bigSerial := 0.0
		for _, shards := range []int{1, 8} {
			p, err := runOne("edge-lease-r1000", experiments.ScaleSpec{
				R: bigR, Edges: bigEdges, Shards: shards,
				Duration: sweepDur, Seed: *seedFlag,
			}, bigSerial)
			if err != nil {
				return nil, err
			}
			if shards == 1 {
				bigSerial = p.EventsPerSec
			}
			big = append(big, p)
		}
		summary["r1000"] = big
	}

	// Memory series: heap_bytes_per_edge at a fixed workload with per-node
	// and with lean metrics (the large-population configuration), then the
	// 100k/250k/1M proof points (full scale only). The lean point doubles
	// as the CI memory smoke: -maxheapedge pins a ceiling it must stay
	// under.
	memR, memEdges, memDur := 250, 10_000, 10*time.Minute
	memShards := 8
	if *quickFlag {
		memR, memEdges, memDur = 18, 540, 5*time.Minute
		memShards = 2
	}
	var mem []scalePoint
	leanHeap := 0.0
	for _, lean := range []bool{false, true} {
		name := "memory"
		if lean {
			name = "memory-lean"
		}
		p, err := runOne(name, experiments.ScaleSpec{
			R: memR, Edges: memEdges, Shards: memShards, Lean: lean,
			Duration: memDur, Seed: *seedFlag,
		}, 0)
		if err != nil {
			return nil, err
		}
		leanHeap = p.HeapBytesPerEdge // the lean point runs last
		mem = append(mem, p)
	}
	if !*quickFlag {
		// The tentpole proof points: 100k, 250k, then the full million
		// leased edges on one box. Lean metrics, 5 virtual minutes (the
		// heap plateaus once every edge holds a lease and its renewal
		// state).
		for _, big := range []struct {
			name  string
			edges int
		}{
			{"memory-100k", 100_000},
			{"memory-250k", 250_000},
			{"memory-1m", 1_000_000},
		} {
			p, err := runOne(big.name, experiments.ScaleSpec{
				R: 1000, Edges: big.edges, Shards: memShards, Lean: true,
				Duration: 5 * time.Minute, Seed: *seedFlag,
			}, 0)
			if err != nil {
				return nil, err
			}
			leanHeap = p.HeapBytesPerEdge
			mem = append(mem, p)
		}
	}
	summary["memory"] = mem
	if *maxHeapPerEdge > 0 && leanHeap > *maxHeapPerEdge {
		return nil, fmt.Errorf("memory smoke: heap_bytes_per_edge %.0f exceeds pinned ceiling %.0f",
			leanHeap, *maxHeapPerEdge)
	}

	// The paper's §5 axes — peerview convergence, discovery success,
	// volatility — re-run sharded at r=1,000 (full scale only): the
	// population the serial engine and the per-peer memory footprint used
	// to rule out.
	if bigR > 0 {
		axes := map[string]any{}

		pvStart := time.Now()
		pvRes, err := experiments.RunPeerview(experiments.PeerviewSpec{
			R: bigR, Topology: topology.Chain, Duration: 120 * time.Minute,
			Seed: *seedFlag, Shards: memShards,
		})
		if err != nil {
			return nil, err
		}
		axes["peerview"] = map[string]any{
			"r": bigR, "shards": memShards,
			"wall_ms":       float64(time.Since(pvStart)) / 1e6,
			"steps":         pvRes.Steps,
			"max_size":      pvRes.MaxSize,
			"plateau_mean":  pvRes.PlateauMean,
			"consistent":    pvRes.ConsistentAtEnd,
			"speedup_bound": pvRes.Parallel.SpeedupBound(),
		}
		fmt.Printf("  axes-r1000 peerview: plateau=%.0f consistent=%v bound=%.2f\n",
			pvRes.PlateauMean, pvRes.ConsistentAtEnd, pvRes.Parallel.SpeedupBound())

		dStart := time.Now()
		dRes, err := experiments.RunDiscovery(experiments.DiscoverySpec{
			R: bigR, Queries: 50, Shards: memShards, Seed: *seedFlag,
		})
		if err != nil {
			return nil, err
		}
		axes["discovery"] = map[string]any{
			"r": bigR, "shards": memShards, "queries": 50,
			"wall_ms":       float64(time.Since(dStart)) / 1e6,
			"steps":         dRes.Steps,
			"mean_ms":       dRes.MeanMs,
			"p95_ms":        dRes.Latency.Quantile(0.95),
			"timeouts":      dRes.Timeouts,
			"walk_fraction": dRes.WalkFraction,
		}
		fmt.Printf("  axes-r1000 discovery: mean=%.1f ms p95=%.1f ms timeouts=%d walk=%.0f%%\n",
			dRes.MeanMs, dRes.Latency.Quantile(0.95), dRes.Timeouts, 100*dRes.WalkFraction)

		vStart := time.Now()
		vRes, err := experiments.RunVolatility(experiments.VolatilitySpec{
			R: bigR, EdgesPerRdv: 1, Kills: 100, Queries: 40,
			KillEvery: []time.Duration{2 * time.Minute},
			Shards:    memShards, Seed: *seedFlag,
		})
		if err != nil {
			return nil, err
		}
		vp := vRes.Points[0]
		axes["volatility"] = map[string]any{
			"r": bigR, "shards": memShards, "kills": 100,
			"wall_ms":     float64(time.Since(vStart)) / 1e6,
			"steps":       vRes.Steps,
			"ok":          vp.Phase.Succeeded,
			"timeouts":    vp.Phase.Timeouts,
			"mean_ms":     vp.Phase.Latency.Mean(),
			"promotions":  vp.Promotions,
			"live_tier":   vp.LiveTier,
			"mean_view":   vp.MeanView,
			"reconverged": vp.Reconverged,
		}
		fmt.Printf("  axes-r1000 volatility: ok=%d/%d promotions=%d liveTier=%d reconv=%v\n",
			vp.Phase.Succeeded, vp.Phase.Succeeded+vp.Phase.Timeouts,
			vp.Promotions, vp.LiveTier, vp.Reconverged)

		summary["axes_r1000"] = axes
	}
	return summary, nil
}

// bandwidth sweeps the streaming layer: throughput vs. message size and
// RTT, lossless (A) and with 1% injected loss (B), over the simulated
// Grid'5000 model; with -live, also over real loopback TCP.
func bandwidth() (any, error) {
	sizes := experiments.BandwidthDefaultSizes
	volume := 4 << 20
	if *quickFlag {
		sizes = []int{1 << 10, 16 << 10, 256 << 10}
		volume = 1 << 20
	}
	tputChart := plot.Chart{
		Title:  "Socket throughput vs message size (simnet Grid'5000)",
		XLabel: "message KiB", YLabel: "MB/s",
	}
	rttChart := plot.Chart{
		Title:  "Socket round-trip time vs message size (simnet Grid'5000)",
		XLabel: "message KiB", YLabel: "ms",
	}
	summary := map[string]any{}
	if *csvFlag {
		fmt.Println("config,sizeBytes,messages,elapsedMs,throughputMBps,rttMs,retx")
	}
	for _, cfg := range []struct {
		name string
		loss float64
	}{{"A (lossless)", 0}, {"B (1% loss)", 0.01}} {
		res, err := experiments.RunBandwidth(experiments.BandwidthSpec{
			Sizes:          sizes,
			VolumePerPoint: volume,
			LossRate:       cfg.loss,
			Seed:           *seedFlag,
		})
		if err != nil {
			return nil, err
		}
		tputS := plot.Series{Label: cfg.name}
		rttS := plot.Series{Label: cfg.name}
		var rows []map[string]any
		for _, pt := range res.Points {
			rows = append(rows, map[string]any{
				"size_bytes": pt.SizeBytes, "messages": pt.Messages,
				"elapsed_ms": pt.ElapsedMs, "throughput_mbps": pt.ThroughputMBps,
				"rtt_ms": pt.RTTMs, "retx": pt.Retx,
			})
			if *csvFlag {
				fmt.Printf("%s,%d,%d,%.3f,%.3f,%.3f,%d\n", cfg.name,
					pt.SizeBytes, pt.Messages, pt.ElapsedMs, pt.ThroughputMBps, pt.RTTMs, pt.Retx)
			} else {
				fmt.Printf("  %-13s size=%-8d msgs=%-5d %8.2f MB/s  rtt=%6.2f ms  retx=%d\n",
					cfg.name, pt.SizeBytes, pt.Messages, pt.ThroughputMBps, pt.RTTMs, pt.Retx)
			}
			kib := float64(pt.SizeBytes) / 1024
			tputS.X = append(tputS.X, kib)
			tputS.Y = append(tputS.Y, pt.ThroughputMBps)
			rttS.X = append(rttS.X, kib)
			rttS.Y = append(rttS.Y, pt.RTTMs)
		}
		tputChart.Add(tputS)
		rttChart.Add(rttS)
		summary[cfg.name] = rows
	}
	if !*csvFlag {
		fmt.Println(tputChart.Render())
		fmt.Println(rttChart.Render())
	}
	if *liveFlag {
		fmt.Println("  — live pass over loopback TCP (wall-clock, machine-dependent) —")
		live, err := experiments.RunBandwidthLive(sizes, 2*volume, 0)
		if err != nil {
			return nil, err
		}
		var rows []map[string]any
		for _, pt := range live {
			rows = append(rows, map[string]any{
				"size_bytes": pt.SizeBytes, "messages": pt.Messages,
				"elapsed_ms": pt.ElapsedMs, "throughput_mbps": pt.ThroughputMBps,
				"rtt_ms": pt.RTTMs,
			})
			fmt.Printf("  %-13s size=%-8d msgs=%-5d %8.2f MB/s  rtt=%6.2f ms\n",
				"live TCP", pt.SizeBytes, pt.Messages, pt.ThroughputMBps, pt.RTTMs)
		}
		summary["live_tcp"] = rows
	}
	return summary, nil
}

func table1() (any, error) {
	res, err := experiments.Table1(*seedFlag)
	if err != nil {
		return nil, err
	}
	fmt.Println("Table 1 / Figure 2 worked example (§3.3):")
	fmt.Printf("  ReplicaPos(116, MAX_HASH=200, l=6) = %d   (paper: 3 -> R4)\n", res.Pos)
	fmt.Printf("  publish messages  = %d                  (paper: 2, O(1))\n", res.PublishMsgs)
	fmt.Printf("  lookup messages   = %d                  (paper: 4 worst case)\n", res.LookupMsgs)
	fmt.Printf("  lookup latency    = %.1f ms\n", res.LatencyMs)
	return res, nil
}

func fig3Params() (quickDur time.Duration, chainRs, treeRs []int) {
	if *quickFlag {
		return 30 * time.Minute, []int{10, 45, 80}, []int{40}
	}
	// Full scale: zero duration lets the driver pick the paper's own
	// per-size lengths (60 min; 120 min for r=580).
	return 0, experiments.Fig3LeftDefaultRs, experiments.Fig3LeftTreeRs
}

func fig3Left() (any, error) {
	quickDur, chainRs, treeRs := fig3Params()
	chart := plot.Chart{
		Title:  "Figure 3 (left): peerview size l over time",
		XLabel: "minutes", YLabel: "known rendezvous",
	}
	var summary []map[string]any
	emit := func(topo topology.Kind, rs []int) error {
		results, err := experiments.Fig3Left(rs, topo, quickDur, *seedFlag)
		if err != nil {
			return err
		}
		for _, res := range results {
			summary = append(summary, map[string]any{
				"topology": topo.String(), "r": res.Spec.R,
				"max": res.MaxSize, "plateau": res.PlateauMean,
				"consistent": res.ConsistentAtEnd,
			})
			label := fmt.Sprintf("%s r=%d", topo, res.Spec.R)
			if *csvFlag {
				fmt.Printf("# %s (max=%d plateau=%.0f consistent=%v)\n%s",
					label, res.MaxSize, res.PlateauMean, res.ConsistentAtEnd,
					res.Size.CSV())
				continue
			}
			s := plot.Series{Label: label}
			for i := 0; i < res.Size.Len(); i++ {
				at, v := res.Size.At(i)
				s.X = append(s.X, at.Minutes())
				s.Y = append(s.Y, v)
			}
			chart.Add(s)
			fmt.Printf("  %-14s max=%-4d plateau=%-6.0f reachedMax=%-5v consistent=%v\n",
				label, res.MaxSize, res.PlateauMean, res.ReachedMax, res.ConsistentAtEnd)
		}
		return nil
	}
	if err := emit(topology.Chain, chainRs); err != nil {
		return nil, err
	}
	if err := emit(topology.Tree, treeRs); err != nil {
		return nil, err
	}
	if !*csvFlag {
		fmt.Println(chart.Render())
	}
	return summary, nil
}

func fig3Right() (any, error) {
	r, dur := 580, 120*time.Minute
	if *quickFlag {
		r, dur = 120, 60*time.Minute
	}
	res, err := experiments.Fig3Right(r, dur, *seedFlag)
	if err != nil {
		return nil, err
	}
	adds, removes := res.Events.Counts()
	firstRemove, _ := res.Events.FirstRemoveAt()
	lastAdd, _ := res.Events.LastAddAt()
	summary := map[string]any{
		"r": r, "adds": adds, "removes": removes,
		"distinct_peers":   res.Events.DistinctPeers(),
		"first_remove_min": firstRemove.Minutes(),
		"last_add_min":     lastAdd.Minutes(),
	}
	fmt.Printf("Figure 3 (right): peerview events at r=%d over %v\n", r, dur)
	fmt.Printf("  add events=%d remove events=%d distinct peers seen=%d/%d\n",
		adds, removes, res.Events.DistinctPeers(), r-1)
	fmt.Printf("  first remove at %.0f min (paper: PVE_EXPIRATION = 20 min)\n",
		firstRemove.Minutes())
	fmt.Printf("  last new peer discovered at %.0f min (paper: 117 min, 577/579 seen)\n",
		lastAdd.Minutes())
	if *csvFlag {
		fmt.Println("minutes,kind,peerNum")
		for _, e := range res.Events.Events {
			kind := "add"
			if e.Kind == metrics.EventRemove {
				kind = "remove"
			}
			fmt.Printf("%.2f,%s,%d\n", e.At.Minutes(), kind, e.PeerNum)
		}
		return summary, nil
	}
	addS := plot.Series{Label: "add"}
	remS := plot.Series{Label: "remove"}
	for _, e := range res.Events.Events {
		if e.Kind == metrics.EventAdd {
			addS.X = append(addS.X, e.At.Minutes())
			addS.Y = append(addS.Y, float64(e.PeerNum))
		} else {
			remS.X = append(remS.X, e.At.Minutes())
			remS.Y = append(remS.Y, float64(e.PeerNum))
		}
	}
	chart := plot.Chart{Title: "Figure 3 (right): add/remove events",
		XLabel: "minutes", YLabel: "rendezvous number"}
	chart.Add(addS)
	chart.Add(remS)
	fmt.Println(chart.Render())
	return summary, nil
}

func fig4Left() (any, error) {
	r, dur := 50, 60*time.Minute
	if *quickFlag {
		r, dur = 30, 40*time.Minute
	}
	def, tuned, err := experiments.Fig4Left(r, dur, *seedFlag)
	if err != nil {
		return nil, err
	}
	summary := map[string]any{
		"r":               r,
		"default_plateau": def.PlateauMean,
		"tuned_final":     tuned.FinalSize,
		"tuned_t1_min":    tuned.ReachedMaxAt.Minutes(),
	}
	fmt.Printf("Figure 4 (left): r=%d, default vs tuned PVE_EXPIRATION\n", r)
	fmt.Printf("  default: max=%d plateau=%.0f (fluctuates below r-1=%d)\n",
		def.MaxSize, def.PlateauMean, r-1)
	t1 := "never"
	if tuned.ReachedMax {
		t1 = fmt.Sprintf("%.0f min", tuned.ReachedMaxAt.Minutes())
	}
	fmt.Printf("  tuned:   max=%d final=%d, reached r-1 at t1=%s (paper: 17 min)\n",
		tuned.MaxSize, tuned.FinalSize, t1)
	if *csvFlag {
		fmt.Printf("# default\n%s# tuned\n%s", def.Size.CSV(), tuned.Size.CSV())
		return summary, nil
	}
	chart := plot.Chart{Title: "Figure 4 (left)", XLabel: "minutes", YLabel: "known rendezvous"}
	for _, pair := range []struct {
		label string
		res   experiments.PeerviewResult
	}{{"default PVE_EXPIRATION", def}, {"tuned PVE_EXPIRATION", tuned}} {
		s := plot.Series{Label: pair.label}
		for i := 0; i < pair.res.Size.Len(); i++ {
			at, v := pair.res.Size.At(i)
			s.X = append(s.X, at.Minutes())
			s.Y = append(s.Y, v)
		}
		chart.Add(s)
	}
	fmt.Println(chart.Render())
	return summary, nil
}

func fig4Right() (any, error) {
	rs := experiments.Fig4RightDefaultRs
	queries := 100
	if *quickFlag {
		rs = []int{5, 25, 75, 150}
		queries = 40
	}
	chart := plot.Chart{Title: "Figure 4 (right): time to discover an advertisement",
		XLabel: "rendezvous peers", YLabel: "ms"}
	if *csvFlag {
		fmt.Println("config,r,meanMs,p95Ms,timeouts,walkFraction")
	}
	var summary []map[string]any
	for _, cfg := range []struct {
		name  string
		noise bool
	}{{"A (no noise)", false}, {"B (50 noisers, 5000 fakes)", true}} {
		results, err := experiments.Fig4RightParallel(rs, cfg.noise, queries, *seedFlag)
		if err != nil {
			return nil, err
		}
		s := plot.Series{Label: cfg.name}
		for _, res := range results {
			summary = append(summary, map[string]any{
				"config": cfg.name, "r": res.Spec.R, "mean_ms": res.MeanMs,
				"p95_ms":   res.Latency.Quantile(0.95),
				"timeouts": res.Timeouts, "walk_fraction": res.WalkFraction,
			})
			if *csvFlag {
				fmt.Printf("%s,%d,%.2f,%.2f,%d,%.2f\n", cfg.name, res.Spec.R,
					res.MeanMs, res.Latency.Quantile(0.95), res.Timeouts, res.WalkFraction)
			} else {
				fmt.Printf("  %-28s r=%-4d mean=%6.1f ms  p95=%6.1f  walk=%.0f%%\n",
					cfg.name, res.Spec.R, res.MeanMs,
					res.Latency.Quantile(0.95), 100*res.WalkFraction)
			}
			s.X = append(s.X, float64(res.Spec.R))
			s.Y = append(s.Y, res.MeanMs)
		}
		chart.Add(s)
	}
	if !*csvFlag {
		fmt.Println(chart.Render())
	}
	return summary, nil
}

// routingExp is the structured-routing bake-off: the same publish / lookup /
// maintenance / churn scenario driven through flood, SRDI-walk, Chord and
// Kademlia backends at equal scale. Full mode sweeps up to r=1,000 (the
// scale the peerview plateau fix unblocked); quick mode pins the CI-sized
// scenario the conformance and golden-replay tests share.
func routingExp() (any, error) {
	ns := []int{128, 1000}
	keys, lookups := 8, 16
	if *quickFlag {
		ns = []int{16}
		keys, lookups = 6, 12
	}
	fmt.Println("Routing bake-off (§3.3 trade-off space): flood vs SRDI-walk vs Chord vs Kademlia")
	var summary []map[string]any
	for _, n := range ns {
		spec := experiments.RoutingSpec{N: n, Keys: keys, Lookups: lookups, Seed: *seedFlag}
		if *quickFlag {
			spec.Converge = 12 * time.Minute
			spec.MaintWindow = 5 * time.Minute
		}
		res, err := experiments.RunRouting(spec)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  n=%d\n", n)
		fmt.Printf("  %-9s %-9s %-8s %-6s %-9s %-9s %-10s %-7s %-9s %-6s\n",
			"backend", "pub-msgs", "ok", "hops", "lat-ms", "look-msgs", "maint/min", "killed", "churn-ok", "chops")
		for _, pt := range res.Points {
			fmt.Printf("  %-9s %-9.1f %3d/%-4d %-6.2f %-9.1f %-9.1f %-10.1f %-7d %3d/%-5d %-6.2f\n",
				pt.Backend, pt.PublishMsgsPerOp, pt.Success, pt.Lookups,
				pt.MeanHops, pt.Latency.Mean(), pt.LookupMsgsPerOp,
				pt.MaintMsgsPerMin, pt.Killed, pt.ChurnSuccess, pt.ChurnLookups,
				pt.ChurnMeanHops)
			summary = append(summary, map[string]any{
				"backend": pt.Backend, "n": pt.N,
				"publish_msgs_op": pt.PublishMsgsPerOp,
				"lookups":         pt.Lookups, "success": pt.Success,
				"mean_hops": pt.MeanHops, "latency_ms": pt.Latency.Mean(),
				"lookup_msgs_op": pt.LookupMsgsPerOp,
				"maint_msgs_min": pt.MaintMsgsPerMin,
				"killed":         pt.Killed,
				"churn_lookups":  pt.ChurnLookups, "churn_success": pt.ChurnSuccess,
				"churn_mean_hops": pt.ChurnMeanHops,
			})
		}
	}
	return summary, nil
}

func baselines() (any, error) {
	ns := []int{16, 64, 128}
	ops := 50
	if *quickFlag {
		ns = []int{16, 48}
		ops = 20
	}
	fmt.Println("Baselines (§3.3 complexity contrast): LC-DHT vs Chord vs flooding")
	fmt.Printf("  %-5s %-22s %-28s %-22s\n", "n",
		"LC-DHT ms / msgs-op", "Chord ms / hops / msgs-op", "Flood ms / msgs-op")
	var summary []map[string]any
	for _, n := range ns {
		res, err := experiments.RunBaselines(n, ops, *seedFlag)
		if err != nil {
			return nil, err
		}
		summary = append(summary, map[string]any{
			"n": n, "lcdht_msgs_op": res.LCDHTMsgsPerOp,
			"chord_hops": res.ChordMeanHops, "flood_msgs_op": res.FloodMsgsPerOp,
		})
		fmt.Printf("  %-5d %6.1f / %-13.1f %6.1f / %4.1f / %-13.1f %6.1f / %-10.1f\n",
			n, res.LCDHTMeanMs, res.LCDHTMsgsPerOp,
			res.ChordMeanMs, res.ChordMeanHops, res.ChordMsgsPerOp,
			res.FloodMeanMs, res.FloodMsgsPerOp)
	}
	return summary, nil
}

func churn() (any, error) {
	r, kills, queries := 40, 10, 100
	if *quickFlag {
		r, kills, queries = 16, 4, 30
	}
	res, err := experiments.RunChurn(experiments.ChurnSpec{
		R: r, Kills: kills, Queries: queries, KillEvery: 90 * time.Second, Seed: *seedFlag,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("Volatility extension (paper §5 future work): r=%d, %d crashes\n", r, kills)
	fmt.Printf("  queries ok=%d/%d timeouts=%d\n", res.Succeeded, queries, res.Timeouts)
	fmt.Printf("  latency %s\n", res.Latency.Summary())
	fmt.Printf("  walk fallback used on %.0f%% of queries\n", 100*res.WalkFraction)

	// Recovery mode: mass failure followed by staged rejoins of the same
	// peers (service-lifecycle Restart — same IDs, cold state), measuring
	// peerview re-convergence and discovery success across the heal.
	recR, recKills, recQ := 30, 10, 25
	if *quickFlag {
		recR, recKills, recQ = 12, 4, 8
	}
	rec, err := experiments.RunChurnRecovery(experiments.RecoverySpec{
		R: recR, Kills: recKills, Queries: recQ,
		RejoinEvery: time.Minute, Seed: *seedFlag,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("Recovery mode: r=%d, mass failure of %d, rejoin every 1m\n", recR, recKills)
	phase := func(name string, ps experiments.PhaseStats) {
		fmt.Printf("  %-10s ok=%d/%d timeouts=%d mean=%.1f ms\n",
			name, ps.Succeeded, recQ, ps.Timeouts, ps.Latency.Mean())
	}
	phase("baseline", rec.Baseline)
	phase("outage", rec.Outage)
	phase("recovered", rec.Recovered)
	fmt.Printf("  live mean view: before=%.1f after-kill=%.1f after-rejoin=%.1f  reconverged=%v\n",
		rec.ViewBeforeKill, rec.ViewAfterKill, rec.ViewAfterRejoin, rec.Reconverged)

	return map[string]any{
		"r": r, "kills": kills, "ok": res.Succeeded, "timeouts": res.Timeouts,
		"mean_ms": res.Latency.Mean(), "walk_fraction": res.WalkFraction,
		"recovery": map[string]any{
			"r": recR, "kills": recKills,
			"baseline_ok":       rec.Baseline.Succeeded,
			"outage_ok":         rec.Outage.Succeeded,
			"recovered_ok":      rec.Recovered.Succeeded,
			"outage_timeouts":   rec.Outage.Timeouts,
			"view_before":       rec.ViewBeforeKill,
			"view_after_kill":   rec.ViewAfterKill,
			"view_after_rejoin": rec.ViewAfterRejoin,
			"reconverged":       rec.Reconverged,
		},
	}, nil
}

// volatility sweeps the self-healing tier across kill rates: for every kill
// interval it measures discovery success, promotions and final-tier
// re-convergence twice — full attrition (no rejoin: promotion is the only
// heal) and kill/rejoin churn.
func volatility() (any, error) {
	r, edgesPer, queries := 12, 2, 60
	killEvery := []time.Duration{8 * time.Minute, 4 * time.Minute, 2 * time.Minute, time.Minute}
	if *quickFlag {
		r, edgesPer, queries = 6, 2, 30
		killEvery = []time.Duration{2 * time.Minute, time.Minute}
	}
	chart := plot.Chart{
		Title:  "Volatility sweep: discovery success vs kill interval (self-healing tier)",
		XLabel: "kill interval (min)", YLabel: "success %",
	}
	if *csvFlag {
		fmt.Println("mode,killEverySec,ok,timeouts,meanMs,promotions,liveTier,meanView,reconverged,merges,timeToSingleTierSec,mergeConverged,postOk,postTimeouts")
	}
	summary := map[string]any{}
	for _, mode := range []struct {
		name   string
		rejoin time.Duration
		merge  bool
	}{{"attrition", 0, false}, {"kill-rejoin", 3 * time.Minute, false}, {"attrition+merge", 0, true}} {
		res, err := experiments.RunVolatility(experiments.VolatilitySpec{
			R: r, EdgesPerRdv: edgesPer, KillEvery: killEvery,
			RejoinAfter: mode.rejoin, Queries: queries, Seed: *seedFlag,
			IslandMerge: mode.merge,
		})
		if err != nil {
			return nil, err
		}
		s := plot.Series{Label: mode.name}
		var rows []map[string]any
		for _, pt := range res.Points {
			total := pt.Phase.Succeeded + pt.Phase.Timeouts
			success := 0.0
			if total > 0 {
				success = 100 * float64(pt.Phase.Succeeded) / float64(total)
			}
			row := map[string]any{
				"kill_every_sec": pt.KillEvery.Seconds(),
				"ok":             pt.Phase.Succeeded, "timeouts": pt.Phase.Timeouts,
				"mean_ms": pt.Phase.Latency.Mean(), "promotions": pt.Promotions,
				"live_tier": pt.LiveTier, "mean_view": pt.MeanView,
				"reconverged": pt.Reconverged,
			}
			if pt.Merge != nil {
				row["merges"] = pt.Merge.Merges
				row["time_to_single_tier_sec"] = pt.Merge.TimeToSingleTier.Seconds()
				row["merge_converged"] = pt.Merge.Converged
				row["post_merge_ok"] = pt.Merge.Phase.Succeeded
				row["post_merge_timeouts"] = pt.Merge.Phase.Timeouts
			}
			rows = append(rows, row)
			if *csvFlag {
				mCol := ",,,,"
				if pt.Merge != nil {
					mCol = fmt.Sprintf("%d,%.0f,%v,%d,%d", pt.Merge.Merges,
						pt.Merge.TimeToSingleTier.Seconds(), pt.Merge.Converged,
						pt.Merge.Phase.Succeeded, pt.Merge.Phase.Timeouts)
				}
				fmt.Printf("%s,%.0f,%d,%d,%.2f,%d,%d,%.2f,%v,%s\n", mode.name,
					pt.KillEvery.Seconds(), pt.Phase.Succeeded, pt.Phase.Timeouts,
					pt.Phase.Latency.Mean(), pt.Promotions, pt.LiveTier,
					pt.MeanView, pt.Reconverged, mCol)
			} else {
				fmt.Printf("  %-15s kill=%-5v ok=%d/%d mean=%6.1f ms  promotions=%-2d liveTier=%-3d view=%.1f reconv=%v",
					mode.name, pt.KillEvery, pt.Phase.Succeeded, total,
					pt.Phase.Latency.Mean(), pt.Promotions, pt.LiveTier,
					pt.MeanView, pt.Reconverged)
				if pt.Merge != nil {
					postTotal := pt.Merge.Phase.Succeeded + pt.Merge.Phase.Timeouts
					fmt.Printf("  merges=%d ttst=%v post=%d/%d",
						pt.Merge.Merges, pt.Merge.TimeToSingleTier,
						pt.Merge.Phase.Succeeded, postTotal)
				}
				fmt.Println()
			}
			s.X = append(s.X, pt.KillEvery.Minutes())
			s.Y = append(s.Y, success)
		}
		chart.Add(s)
		summary[mode.name] = rows
	}
	if !*csvFlag {
		fmt.Println(chart.Render())
	}
	return summary, nil
}

func ablations() (any, error) {
	r, dur := 60, 45*time.Minute
	if *quickFlag {
		r, dur = 30, 24*time.Minute
	}
	fmt.Printf("Ablations at r=%d (steady-state view size vs bandwidth):\n", r)
	refs, err := experiments.AblateReferrals(r, nil, dur, *seedFlag)
	if err != nil {
		return nil, err
	}
	ivals, err := experiments.AblateInterval(r, nil, dur, *seedFlag)
	if err != nil {
		return nil, err
	}
	exps, err := experiments.AblateExpiry(r, nil, dur, *seedFlag)
	if err != nil {
		return nil, err
	}
	summary := map[string]any{}
	for _, res := range []experiments.AblationResult{refs, ivals, exps} {
		fmt.Printf("  %s:\n", res.Parameter)
		var rows []map[string]any
		for _, pt := range res.Points {
			rows = append(rows, map[string]any{
				"label": pt.Label, "plateau_l": pt.PlateauL,
				"msgs_per_peer_min": pt.MsgsPerPeerPerMin,
			})
			fmt.Printf("    %-8s plateau l=%-6.1f msgs/peer/min=%.1f\n",
				pt.Label, pt.PlateauL, pt.MsgsPerPeerPerMin)
		}
		summary[res.Parameter] = rows
	}
	walk, err := experiments.AblateWalk(75, 40, *seedFlag)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  walk fallback (r=%d, %d queries):\n", walk.R, walk.Queries)
	fmt.Printf("    with walk:    %d ok, mean %.1f ms\n", walk.WithWalkOK, walk.WithWalkMeanMs)
	fmt.Printf("    without walk: %d ok, %d lost\n", walk.WithoutWalkOK, walk.WithoutWalkLost)
	summary["walk"] = map[string]any{
		"with_ok": walk.WithWalkOK, "without_ok": walk.WithoutWalkOK,
		"without_lost": walk.WithoutWalkLost,
	}
	return summary, nil
}
