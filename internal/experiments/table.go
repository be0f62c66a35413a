package experiments

import (
	"fmt"
	"runtime"
	"time"

	"jxta/internal/metrics"
	"jxta/internal/plot"
	"jxta/internal/topology"
)

// Options select one run of a registered experiment.
type Options struct {
	// Seed is the master determinism seed.
	Seed int64
	// Quick picks the scaled-down parameters: seconds instead of minutes.
	Quick bool
}

// Expectation is one of the paper's numbers an experiment reproduces.
type Expectation struct {
	Claim  string
	Source string // the paper's table, figure or section
	Paper  string // the paper's value
	// Key names the Summary member that holds the measured value.
	Key string
}

// Report is one experiment run. Summary is the single source of its
// numbers: jxta-bench writes it under experiments.<name> with -json and
// renders it as text or CSV.
type Report struct {
	Summary any
	Charts  []plot.Chart
	Paper   []Expectation
}

// Experiment is one entry of Table.
type Experiment struct {
	// Name selects the experiment on jxta-bench's -exp flag and keys its
	// JSON summary.
	Name  string
	Title string
	Paper []Expectation
	run   func(Options) (summary any, charts []plot.Chart, err error)
}

// Run executes the experiment at the scale opts select.
func (e Experiment) Run(opts Options) (Report, error) {
	summary, charts, err := e.run(opts)
	return Report{Summary: summary, Charts: charts, Paper: e.Paper}, err
}

// Table lists every experiment of the paper's evaluation (§4) and its
// extensions, in the order `jxta-bench -exp all` runs them.
var Table = []Experiment{
	{Name: "table1", Title: "Table 1 / Figure 2: the LC-DHT worked example (§3.3)", run: table1,
		Paper: []Expectation{
			{Claim: "ReplicaPos(116, MAX_HASH=200, l=6)", Source: "Table 1", Paper: "3 (peer R4)", Key: "Pos"},
			{Claim: "messages per publish", Source: "§3.3", Paper: "2, O(1)", Key: "PublishMsgs"},
			{Claim: "messages per lookup", Source: "§3.3", Paper: "4 worst case", Key: "LookupMsgs"},
		}},
	{Name: "fig3left", Title: "Figure 3 (left): peerview size l(t), chains and trees", run: fig3Left},
	{Name: "fig3right", Title: "Figure 3 (right): add/remove events of one peerview", run: fig3Right,
		Paper: []Expectation{
			{Claim: "first removal (min)", Source: "Fig. 3 right", Paper: "20 (PVE_EXPIRATION)", Key: "first_remove_min"},
			{Claim: "last new peer (min)", Source: "Fig. 3 right", Paper: "117", Key: "last_add_min"},
			{Claim: "distinct peers seen", Source: "Fig. 3 right", Paper: "577 of r-1 = 579", Key: "distinct_peers"},
		}},
	{Name: "fig4left", Title: "Figure 4 (left): default vs tuned PVE_EXPIRATION", run: fig4Left,
		Paper: []Expectation{
			{Claim: "tuned: l reaches r-1 at t1 (min)", Source: "Fig. 4 left", Paper: "17", Key: "tuned_t1_min"},
		}},
	{Name: "fig4right", Title: "Figure 4 (right): time to discover an advertisement vs r", run: fig4Right},
	{Name: "churn", Title: "Churn (§5 future work): rolling crashes, then mass failure and staged rejoin", run: churn},
	{Name: "volatility", Title: "Volatility: the self-healing tier across kill intervals", run: volatility},
	{Name: "ablations", Title: "Ablations: steady-state view size vs bandwidth", run: ablations},
	{Name: "scale", Title: "Scale: the sharded engine's events/sec, speedup bound and heap per edge", run: scale},
	{Name: "routing", Title: "Routing bake-off (§3.3): flood vs SRDI-walk vs Chord vs Kademlia", run: routingBakeoff},
}

// curve turns an l(t) series into a chart curve over minutes.
func curve(label string, s metrics.Series) plot.Series {
	c := plot.Series{Label: label, Y: s.Values}
	for _, at := range s.Times {
		c.X = append(c.X, at.Minutes())
	}
	return c
}

func table1(o Options) (any, []plot.Chart, error) {
	res, err := Table1(o.Seed)
	return res, nil, err
}

type fig3LeftRow struct {
	Topology   string  `json:"topology"`
	R          int     `json:"r"`
	Max        int     `json:"max"`
	Plateau    float64 `json:"plateau"`
	Consistent bool    `json:"consistent"`
}

func fig3Left(o Options) (any, []plot.Chart, error) {
	// The paper's chain and tree sizes. Full scale: zero duration lets
	// Fig3Left pick the paper's own per-size lengths (60 min; 120 min for
	// r=580).
	var dur time.Duration
	chainRs, treeRs := []int{10, 45, 50, 80, 160, 580}, []int{160, 220, 338}
	if o.Quick {
		dur, chainRs, treeRs = 30*time.Minute, []int{10, 45, 80}, []int{40}
	}
	chart := plot.Chart{Title: "Figure 3 (left): peerview size l over time",
		XLabel: "minutes", YLabel: "known rendezvous"}
	var rows []fig3LeftRow
	for _, topo := range []topology.Kind{topology.Chain, topology.Tree} {
		rs := chainRs
		if topo == topology.Tree {
			rs = treeRs
		}
		results, err := Fig3Left(rs, topo, dur, o.Seed)
		if err != nil {
			return nil, nil, err
		}
		for _, res := range results {
			rows = append(rows, fig3LeftRow{topo.String(), res.Spec.R, res.MaxSize, res.PlateauMean, res.ConsistentAtEnd})
			chart.Add(curve(fmt.Sprintf("%s r=%d", topo, res.Spec.R), res.Size))
		}
	}
	return rows, []plot.Chart{chart}, nil
}

type fig3RightSummary struct {
	R              int     `json:"r"`
	Adds           int     `json:"adds"`
	Removes        int     `json:"removes"`
	DistinctPeers  int     `json:"distinct_peers"`
	FirstRemoveMin float64 `json:"first_remove_min"`
	LastAddMin     float64 `json:"last_add_min"`
}

func fig3Right(o Options) (any, []plot.Chart, error) {
	r, dur := 580, 120*time.Minute
	if o.Quick {
		r, dur = 120, 60*time.Minute
	}
	res, err := Fig3Right(r, dur, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	adds, removes := res.Events.Counts()
	firstRemove, _ := res.Events.FirstRemoveAt()
	lastAdd, _ := res.Events.LastAddAt()
	chart := plot.Chart{Title: "Figure 3 (right): add/remove events",
		XLabel: "minutes", YLabel: "rendezvous number"}
	addS, remS := plot.Series{Label: "add"}, plot.Series{Label: "remove"}
	for _, e := range res.Events.Events {
		s := &addS
		if e.Kind == metrics.EventRemove {
			s = &remS
		}
		s.X = append(s.X, e.At.Minutes())
		s.Y = append(s.Y, float64(e.PeerNum))
	}
	chart.Add(addS)
	chart.Add(remS)
	return fig3RightSummary{r, adds, removes, res.Events.DistinctPeers(),
		firstRemove.Minutes(), lastAdd.Minutes()}, []plot.Chart{chart}, nil
}

type fig4LeftSummary struct {
	R              int     `json:"r"`
	DefaultPlateau float64 `json:"default_plateau"`
	TunedFinal     int     `json:"tuned_final"`
	TunedT1Min     float64 `json:"tuned_t1_min"`
}

func fig4Left(o Options) (any, []plot.Chart, error) {
	r, dur := 50, 60*time.Minute
	if o.Quick {
		r, dur = 30, 40*time.Minute
	}
	def, tuned, err := Fig4Left(r, dur, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	chart := plot.Chart{Title: "Figure 4 (left)", XLabel: "minutes", YLabel: "known rendezvous"}
	chart.Add(curve("default PVE_EXPIRATION", def.Size))
	chart.Add(curve("tuned PVE_EXPIRATION", tuned.Size))
	return fig4LeftSummary{r, def.PlateauMean, tuned.FinalSize, tuned.ReachedMaxAt.Minutes()},
		[]plot.Chart{chart}, nil
}

type fig4RightRow struct {
	Config       string  `json:"config"`
	R            int     `json:"r"`
	MeanMs       float64 `json:"mean_ms"`
	P95Ms        float64 `json:"p95_ms"`
	Timeouts     int     `json:"timeouts"`
	WalkFraction float64 `json:"walk_fraction"`
}

func fig4Right(o Options) (any, []plot.Chart, error) {
	rs, queries := []int{5, 10, 25, 50, 75, 100, 150, 200}, 100
	if o.Quick {
		rs, queries = []int{5, 25, 75, 150}, 40
	}
	chart := plot.Chart{Title: "Figure 4 (right): time to discover an advertisement",
		XLabel: "rendezvous peers", YLabel: "ms"}
	var rows []fig4RightRow
	for _, cfg := range []struct {
		name  string
		noise bool
	}{{"A (no noise)", false}, {"B (50 noisers, 5000 fakes)", true}} {
		results, err := Fig4Right(rs, cfg.noise, queries, o.Seed)
		if err != nil {
			return nil, nil, err
		}
		s := plot.Series{Label: cfg.name}
		for _, res := range results {
			rows = append(rows, fig4RightRow{cfg.name, res.Spec.R, res.MeanMs,
				res.Latency.Quantile(0.95), res.Timeouts, res.WalkFraction})
			s.X = append(s.X, float64(res.Spec.R))
			s.Y = append(s.Y, res.MeanMs)
		}
		chart.Add(s)
	}
	return rows, []plot.Chart{chart}, nil
}

type routingRow struct {
	Backend       string  `json:"backend"`
	N             int     `json:"n"`
	PublishMsgsOp float64 `json:"publish_msgs_op"`
	Lookups       int     `json:"lookups"`
	Success       int     `json:"success"`
	MeanHops      float64 `json:"mean_hops"`
	LatencyMs     float64 `json:"latency_ms"`
	LookupMsgsOp  float64 `json:"lookup_msgs_op"`
	MaintMsgsMin  float64 `json:"maint_msgs_min"`
}

// routingBakeoff drives the same publish / lookup / maintenance scenario
// through every routing backend at equal scale and compares their
// steady-state routing cost, as §3.3 does; no member fails. Full mode
// sweeps up to r=1,000; quick mode is the CI-sized scenario the conformance
// and golden-replay tests share.
func routingBakeoff(o Options) (any, []plot.Chart, error) {
	ns, keys, lookups := []int{128, 1000}, 8, 16
	if o.Quick {
		ns, keys, lookups = []int{16}, 6, 12
	}
	var rows []routingRow
	for _, n := range ns {
		spec := RoutingSpec{N: n, Keys: keys, Lookups: lookups, Seed: o.Seed}
		if o.Quick {
			spec.Converge = 12 * time.Minute
			spec.MaintWindow = 5 * time.Minute
		}
		res, err := RunRouting(spec)
		if err != nil {
			return nil, nil, err
		}
		for _, pt := range res.Points {
			rows = append(rows, routingRow{pt.Backend, pt.N, pt.PublishMsgsPerOp,
				pt.Lookups, pt.Success, pt.MeanHops, pt.Latency.Mean(), pt.LookupMsgsPerOp,
				pt.MaintMsgsPerMin})
		}
	}
	return rows, nil, nil
}

type churnSummary struct {
	R            int             `json:"r"`
	Kills        int             `json:"kills"`
	OK           int             `json:"ok"`
	Timeouts     int             `json:"timeouts"`
	MeanMs       float64         `json:"mean_ms"`
	WalkFraction float64         `json:"walk_fraction"`
	Recovery     recoverySummary `json:"recovery"`
}

type recoverySummary struct {
	R               int     `json:"r"`
	Kills           int     `json:"kills"`
	BaselineOK      int     `json:"baseline_ok"`
	OutageOK        int     `json:"outage_ok"`
	RecoveredOK     int     `json:"recovered_ok"`
	OutageTimeouts  int     `json:"outage_timeouts"`
	ViewBefore      float64 `json:"view_before"`
	ViewAfterKill   float64 `json:"view_after_kill"`
	ViewAfterRejoin float64 `json:"view_after_rejoin"`
	Reconverged     bool    `json:"reconverged"`
}

// churn runs rolling rendezvous crashes while queries flow, then the
// recovery mode: a mass failure healed by staged rejoins of the same peers
// (Restart: same IDs, cold state).
func churn(o Options) (any, []plot.Chart, error) {
	r, kills, queries := 40, 10, 100
	recR, recKills, recQ := 30, 10, 25
	if o.Quick {
		r, kills, queries = 16, 4, 30
		recR, recKills, recQ = 12, 4, 8
	}
	res, err := RunChurn(ChurnSpec{R: r, Kills: kills, Queries: queries, Seed: o.Seed})
	if err != nil {
		return nil, nil, err
	}
	rec, err := RunChurnRecovery(RecoverySpec{R: recR, Kills: recKills, Queries: recQ, Seed: o.Seed})
	if err != nil {
		return nil, nil, err
	}
	return churnSummary{r, kills, res.Succeeded, res.Timeouts, res.Latency.Mean(), res.WalkFraction,
		recoverySummary{recR, recKills, rec.Baseline.Succeeded, rec.Outage.Succeeded,
			rec.Recovered.Succeeded, rec.Outage.Timeouts, rec.ViewBeforeKill,
			rec.ViewAfterKill, rec.ViewAfterRejoin, rec.Reconverged}}, nil, nil
}

type volatilityRow struct {
	KillEverySec float64 `json:"kill_every_sec"`
	OK           int     `json:"ok"`
	Timeouts     int     `json:"timeouts"`
	MeanMs       float64 `json:"mean_ms"`
	Promotions   int     `json:"promotions"`
	LiveTier     int     `json:"live_tier"`
	MeanView     float64 `json:"mean_view"`
	Reconverged  bool    `json:"reconverged"`
	*mergeRow
}

// mergeRow is present only on island-merge points.
type mergeRow struct {
	Merges              int     `json:"merges"`
	TimeToSingleTierSec float64 `json:"time_to_single_tier_sec"`
	MergeConverged      bool    `json:"merge_converged"`
	PostMergeOK         int     `json:"post_merge_ok"`
	PostMergeTimeouts   int     `json:"post_merge_timeouts"`
}

// volatility sweeps the self-healing tier across kill intervals, each
// measured as full attrition (victims never return: promotion is the only
// heal), as kill/rejoin churn, and as attrition with island merging.
func volatility(o Options) (any, []plot.Chart, error) {
	r, edgesPer, queries := 12, 2, 60
	killEvery := []time.Duration{8 * time.Minute, 4 * time.Minute, 2 * time.Minute, time.Minute}
	if o.Quick {
		r, edgesPer, queries = 6, 2, 30
		killEvery = []time.Duration{2 * time.Minute, time.Minute}
	}
	chart := plot.Chart{
		Title:  "Volatility sweep: discovery success vs kill interval (self-healing tier)",
		XLabel: "kill interval (min)", YLabel: "success %",
	}
	summary := map[string][]volatilityRow{}
	for _, mode := range []struct {
		name   string
		rejoin time.Duration
		merge  bool
	}{{"attrition", 0, false}, {"kill-rejoin", 3 * time.Minute, false}, {"attrition+merge", 0, true}} {
		res, err := RunVolatility(VolatilitySpec{
			R: r, EdgesPerRdv: edgesPer, KillEvery: killEvery,
			RejoinAfter: mode.rejoin, Queries: queries, Seed: o.Seed,
			IslandMerge: mode.merge,
		})
		if err != nil {
			return nil, nil, err
		}
		s := plot.Series{Label: mode.name}
		for _, pt := range res.Points {
			row := volatilityRow{pt.KillEvery.Seconds(), pt.Phase.Succeeded, pt.Phase.Timeouts,
				pt.Phase.Latency.Mean(), pt.Promotions, pt.LiveTier, pt.MeanView, pt.Reconverged, nil}
			if m := pt.Merge; m != nil {
				row.mergeRow = &mergeRow{m.Merges, m.TimeToSingleTier.Seconds(), m.Converged,
					m.Phase.Succeeded, m.Phase.Timeouts}
			}
			summary[mode.name] = append(summary[mode.name], row)
			success := 0.0
			if total := pt.Phase.Succeeded + pt.Phase.Timeouts; total > 0 {
				success = 100 * float64(pt.Phase.Succeeded) / float64(total)
			}
			s.X = append(s.X, pt.KillEvery.Minutes())
			s.Y = append(s.Y, success)
		}
		chart.Add(s)
	}
	return summary, []plot.Chart{chart}, nil
}

type walkSummary struct {
	WithOK      int `json:"with_ok"`
	WithoutOK   int `json:"without_ok"`
	WithoutLost int `json:"without_lost"`
}

func ablations(o Options) (any, []plot.Chart, error) {
	r, dur := 60, 45*time.Minute
	if o.Quick {
		r, dur = 30, 24*time.Minute
	}
	refs, err := AblateReferrals(r, nil, dur, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	ivals, err := AblateInterval(r, nil, dur, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	exps, err := AblateExpiry(r, nil, dur, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	summary := map[string]any{}
	for _, res := range []AblationResult{refs, ivals, exps} {
		summary[res.Parameter] = res.Points
	}
	walk, err := AblateWalk(75, 40, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	summary["walk"] = walkSummary{walk.WithWalkOK, walk.WithoutWalkOK, walk.WithoutWalkLost}
	return summary, nil, nil
}

// scalePoint is one sharded-engine scaling measurement. Wall-clock fields
// are hardware-dependent; SpeedupBound is the workload's achievable speedup
// on an ideal one-core-per-shard machine (total events over barrier-model
// critical-path events), so the trajectory stays comparable across boxes.
type scalePoint struct {
	Workload     string  `json:"workload"`
	R            int     `json:"r"`
	Edges        int     `json:"edges"`
	Shards       int     `json:"shards"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	WallMs       float64 `json:"wall_ms"`
	Steps        uint64  `json:"steps"`
	EventsPerSec float64 `json:"events_per_sec"`
	Windows      uint64  `json:"windows"`
	AvgBusy      float64 `json:"avg_busy"`
	CrossShard   uint64  `json:"cross_shard"`
	SpeedupBound float64 `json:"speedup_bound"`
	SpeedupWall  float64 `json:"speedup_wall"`
	// HeapBytesPerEdge is ScaleResult.HeapBytesPerEdge; zero when not
	// measured.
	HeapBytesPerEdge float64             `json:"heap_bytes_per_edge,omitempty"`
	NodeMetrics      *NodeMetricsSummary `json:"node_metrics,omitempty"`
}

// pointOf builds a scale point from a run's cost and wall time. Its
// speedup_wall is 1 until relativeTo sets it.
func pointOf(workload string, r, edges, shards int, wall time.Duration, c RunCost) scalePoint {
	p := scalePoint{
		Workload: workload, R: r, Edges: edges, Shards: shards,
		GOMAXPROCS: runtime.GOMAXPROCS(0), WallMs: float64(wall.Nanoseconds()) / 1e6,
		Steps: c.Steps, Windows: c.Parallel.Windows, AvgBusy: c.Parallel.AvgBusy(),
		CrossShard: c.Parallel.CrossShard, SpeedupBound: c.Parallel.SpeedupBound(), SpeedupWall: 1,
	}
	if wall > 0 { // encoding/json refuses the +Inf a zero wall time would give
		p.EventsPerSec = float64(c.Steps) / wall.Seconds()
	}
	return p
}

// scale measures the sharded conservative-PDES engine: events/sec and wall
// time vs shard count on a leased-edge workload (r=250 / 10k edges), a
// GOMAXPROCS speedup curve at fixed shard count, the serial-vs-sharded
// comparison on an 80-rendezvous peerview run, the heap cost of an edge,
// and (full scale only) the first r=1,000 point, 100k–1M edge memory points
// and the paper's §5 axes at r=1,000.
func scale(o Options) (any, []plot.Chart, error) {
	lease := ScaleSpec{R: 250, Edges: 10_000, Duration: 10 * time.Minute, Seed: o.Seed}
	leaseShards, gmps := []int{1, 2, 4, 8}, []int{1, 2, 4, 8}
	pvR, pvDur, pvShards := 80, 30*time.Minute, []int{1, 8, 9}
	mem := ScaleSpec{R: 250, Edges: 10_000, Shards: 8, Duration: 10 * time.Minute, Seed: o.Seed}
	if o.Quick {
		lease.R, lease.Edges, lease.Duration = 18, 54, 5*time.Minute
		leaseShards, gmps = []int{1, 2}, []int{1, 2}
		pvR, pvDur, pvShards = 20, 6*time.Minute, []int{1, 2}
		mem.R, mem.Edges, mem.Shards, mem.Duration = 18, 540, 2, 5*time.Minute
	}
	summary := map[string]any{}
	// point measures one RunScale run.
	point := func(name string, spec ScaleSpec) (scalePoint, error) {
		res, err := RunScale(spec)
		p := pointOf(name, spec.R, spec.Edges, res.Spec.Shards, res.Wall, res.RunCost)
		p.HeapBytesPerEdge, p.NodeMetrics = res.HeapBytesPerEdge, res.NodeMetrics
		return p, err
	}
	relativeTo := func(ps []scalePoint, serial scalePoint) {
		for i := range ps {
			ps[i].SpeedupWall = ps[i].EventsPerSec / serial.EventsPerSec
		}
	}
	// acrossShards runs spec at each shard count, the first being the
	// serial baseline.
	acrossShards := func(name string, spec ScaleSpec, counts []int) ([]scalePoint, error) {
		var ps []scalePoint
		for _, shards := range counts {
			spec.Shards = shards
			p, err := point(name, spec)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		relativeTo(ps, ps[0])
		return ps, nil
	}

	sweep, err := acrossShards("edge-lease", lease, leaseShards)
	if err != nil {
		return nil, nil, err
	}
	summary["shard_sweep"] = sweep

	// GOMAXPROCS curve at the highest shard count: same virtual run, only
	// the OS-thread budget varies (deterministic stats, varying wall time).
	var gmpCurve []scalePoint
	for _, gmp := range gmps {
		prev := runtime.GOMAXPROCS(gmp)
		spec := lease
		spec.Shards = leaseShards[len(leaseShards)-1]
		p, err := point("edge-lease", spec)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, nil, err
		}
		p.GOMAXPROCS = gmp
		gmpCurve = append(gmpCurve, p)
	}
	relativeTo(gmpCurve, sweep[0])
	summary["gomaxprocs_curve"] = gmpCurve

	// A peerview run, serial vs sharded. 8 shards carries a double-loaded
	// shard (nine Grid'5000 sites on eight shards); 9 shards places one site
	// per shard.
	var pv []scalePoint
	for _, shards := range pvShards {
		start := time.Now()
		res, err := RunPeerview(PeerviewSpec{
			R: pvR, Topology: topology.Chain, Duration: pvDur,
			Seed: o.Seed, Shards: shards,
		})
		if err != nil {
			return nil, nil, err
		}
		pv = append(pv, pointOf(fmt.Sprintf("peerview-r%d-%dmin", pvR, int(pvDur.Minutes())),
			pvR, 0, shards, time.Since(start), res.RunCost))
	}
	relativeTo(pv, pv[0])
	summary["peerview"] = pv

	if !o.Quick {
		big, err := acrossShards("edge-lease-r1000",
			ScaleSpec{R: 1000, Edges: 20_000, Duration: lease.Duration, Seed: o.Seed}, []int{1, 8})
		if err != nil {
			return nil, nil, err
		}
		summary["r1000"] = big
	}

	// Memory series: heap_bytes_per_edge at a fixed workload, then 100k,
	// 250k and the full million leased edges on one box at 5 virtual minutes
	// (the heap plateaus once every edge holds a lease and its renewal
	// state). TestQuiescentEdgeHeapCeiling holds a ceiling on the quick
	// point.
	type memRun struct {
		name     string
		r, edges int
		dur      time.Duration
	}
	runs := []memRun{{"memory", mem.R, mem.Edges, mem.Duration}}
	if !o.Quick {
		runs = append(runs, memRun{"memory-100k", 1000, 100_000, 5 * time.Minute},
			memRun{"memory-250k", 1000, 250_000, 5 * time.Minute},
			memRun{"memory-1m", 1000, 1_000_000, 5 * time.Minute})
	}
	var memory []scalePoint
	for _, m := range runs {
		p, err := point(m.name, ScaleSpec{R: m.r, Edges: m.edges, Shards: mem.Shards,
			Duration: m.dur, Seed: o.Seed})
		if err != nil {
			return nil, nil, err
		}
		memory = append(memory, p)
	}
	summary["memory"] = memory

	// The paper's §5 axes — peerview convergence, discovery success,
	// volatility — re-run sharded at r=1,000 (full scale only): the
	// population the serial engine and the per-peer memory footprint used
	// to rule out.
	if !o.Quick {
		bigR, memShards := 1000, mem.Shards
		axes := map[string]any{}

		pvStart := time.Now()
		pvRes, err := RunPeerview(PeerviewSpec{
			R: bigR, Topology: topology.Chain, Duration: 120 * time.Minute,
			Seed: o.Seed, Shards: memShards,
		})
		if err != nil {
			return nil, nil, err
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

		dStart := time.Now()
		dRes, err := RunDiscovery(DiscoverySpec{
			R: bigR, Queries: 50, Shards: memShards, Seed: o.Seed,
		})
		if err != nil {
			return nil, nil, err
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

		vStart := time.Now()
		vRes, err := RunVolatility(VolatilitySpec{
			R: bigR, EdgesPerRdv: 1, Kills: 100, Queries: 40,
			KillEvery: []time.Duration{2 * time.Minute},
			Shards:    memShards, Seed: o.Seed,
		})
		if err != nil {
			return nil, nil, err
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
		summary["axes_r1000"] = axes
	}
	return summary, nil, nil
}
