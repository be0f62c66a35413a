package main

import (
	"fmt"
	"time"

	"jxta/internal/deploy"
)

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
}

// runWorkload runs one workload in this process and returns what to report.
func runWorkload(opt options) (*outcome, error) {
	if opt.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	probe() // allocates the probe's buffer before any heap baseline is taken
	var (
		values            map[string]float64
		attempted, failed int
		defs              = endToEnd
		out               = &outcome{workload: opt.workload, seed: opt.seed}
		err               error
	)
	if opt.trace {
		defs = perLayer
	}
	switch wl := simWorkloads[opt.workload]; {
	case wl != nil && opt.trace:
		values, attempted, failed, err = tracedSim(wl, opt, out)
	case wl != nil:
		values, attempted, failed, err = untracedSim(wl, opt, out)
	case opt.workload == wlLive:
		values, attempted, failed, err = runLiveWorkload(opt, out)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	out.Metrics, err = fill(defs, values)
	if err != nil {
		return nil, err
	}
	// Reaching this line means every check passed: a failed check returns
	// an error above instead of a number.
	out.Correct, out.Attempted, out.Failed = true, attempted, failed
	return out, nil
}

// replays is how many times the timed body of a simulated workload runs:
// what --seconds buys at the workload's nominal cost, and never fewer than
// two, because the estimator compares replays slice by slice. The count is
// fixed by arithmetic, not by the clock, so two commits do the same work.
func replays(wl *simWorkload, seconds int) int {
	if n := int(float64(seconds) / wl.nominalReplay); n > 2 {
		return n
	}
	return 2
}

func untracedSim(wl *simWorkload, opt options, out *outcome) (map[string]float64, int, int, error) {
	n := replays(wl, opt.seconds)
	var reps []*simReplay
	var setups []time.Duration
	for i := 0; i < n; i++ {
		// The discovery probe reports counts and virtual time only, which a
		// replay cannot change: the first replay runs it for all of them.
		rep, err := replaySim(wl, opt.seed, opt.quick, i == 0, nil, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		reps = append(reps, rep)
		setups = append(setups, rep.setup())
	}
	want := wl.setups
	if opt.quick {
		want = n // a smoke run sets up for its replays only
	}
	for len(setups) < want {
		d, err := setupOnly(wl, opt.seed, opt.quick)
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, d)
	}
	out.notes = append(out.notes, fmt.Sprintf("%d replays; raw body wall and memory slowdown per replay:%s", n, bodyWalls(reps)))
	groups := batchMeans(setups, wl.setupBatch)
	out.notes = append(out.notes, fmt.Sprintf("%d set-ups, averaged in groups of %d: %v", len(setups), max(wl.setupBatch, 1), groups))
	for name, l := range reps[0].lookups {
		out.notes = append(out.notes, fmt.Sprintf("phase %s: %d of %d lookups ok (%d timed out, %d refused), latency sample %d, p99 %.1f ms, max %.1f ms",
			name, l.ok, l.attempted, l.timeouts, l.refused, len(l.latMs), percentile(l.latMs, 0.99), percentile(l.latMs, 1)))
	}
	return simEndToEnd(reps, groups, minLookupSample(opt.quick))
}

func bodyWalls(reps []*simReplay) string {
	s := ""
	for _, r := range reps {
		var w time.Duration
		for _, p := range r.phases {
			if p.body {
				w += p.wall()
			}
		}
		s += fmt.Sprintf(" %.3fs x%.3f", w.Seconds(), bodySlowdown(r))
	}
	return s
}

// setupOnly sets a simulated workload up and tears it down again.
func setupOnly(wl *simWorkload, seed int64, quick bool) (time.Duration, error) {
	run, err := setUp(wl, seed, quick, nil, nil, 0)
	if err != nil {
		return 0, err
	}
	run.o.StopAll()
	return run.rep.setup(), nil
}

// batchMeans averages each group of k consecutive durations (the last group
// may be shorter; k is at least 1).
func batchMeans(ds []time.Duration, k int) []time.Duration {
	var means []time.Duration
	for len(ds) > 0 {
		n := min(max(k, 1), len(ds))
		var sum time.Duration
		for _, d := range ds[:n] {
			sum += d
		}
		means = append(means, sum/time.Duration(n))
		ds = ds[n:]
	}
	return means
}

// tracedSim is the traced run of a simulated workload: one untraced replay
// of the body for reference, one traced replay with the message tap and the
// spans, one Shards=2 replay of the longest pure Sched.Run stretch, and the
// layer kernels on the traced replay's own messages.
func tracedSim(wl *simWorkload, opt options, out *outcome) (map[string]float64, int, int, error) {
	base, err := replaySim(wl, opt.seed, opt.quick, false, nil, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := newTracer()
	tp := newTap(opt.seed)
	t, err := replaySim(wl, opt.seed, opt.quick, true, tr, tp)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := agree(base, t); err != nil {
		return nil, 0, 0, fmt.Errorf("the tap changed the run: %w", err)
	}
	sh, err := shardedReplay(wl, opt, base)
	if err != nil {
		return nil, 0, 0, err
	}
	c := buildCorpus(tp.corpus, opt.seed)
	kern, err := runKernels(c, kernelSizes{
		pending: t.pendingPeak,
		srdi:    t.counts.srdiLargest,
		cache:   t.counts.cacheLargest,
		spec:    kernelNodeConfig(wl.name),
	}, opt.seed, false, kernelBudget(opt.quick))
	if err != nil {
		return nil, 0, 0, err
	}
	values := simPerLayer(base, t, tp, c, kern, sh)

	tf := &traceFile{
		Workload: wl.name, Seed: opt.seed, Machine: describeMachine(),
		Notes: []string{
			"spans are recorded by the benchmark around its own calls into the program; none come from inside it",
			"*.busy_share is a model: layer count x kernel ns / traced wall",
			fmt.Sprintf("kernel corpus: %d messages sampled from %d, %d advertisement documents", len(tp.corpus), tp.seen, len(c.docs)),
		},
		ReplayWallS: map[string]float64{},
		Latency:     map[string]float64{},
		OkShares:    map[string]float64{},
		PerLayer:    values,
	}
	for i, r := range []*simReplay{base, t} {
		label := []string{"untraced", "traced"}[i]
		for _, p := range r.phases {
			tf.ReplayWallS[label+"/"+p.name] = p.wall().Seconds()
		}
		tf.ReplayWallS[label+"/setup"] = r.setup().Seconds()
	}
	tf.ReplayWallS["sharded2/"+wl.shardedRegion] = sh.wall.Seconds()
	if t.lookups[phaseDegraded] != nil {
		tf.Notes = append(tf.Notes, "phase degraded is fault injection after the body: a quarter of the rendezvous killed for good and read at once; its failed lookups are its measurement and are not in the run's attempted and failed counts")
	}
	attempted, ok := 0, 0
	for name, l := range t.lookups {
		tf.OkShares[name] = ratio(float64(l.ok), float64(l.attempted))
		addLatency(tf.Latency, name, l.latMs)
		if name != phaseDegraded {
			attempted += l.attempted
			ok += l.ok
		}
	}
	path, err := tr.write(opt.outDir, tf)
	if err != nil {
		return nil, 0, 0, err
	}
	out.trace = tf
	out.notes = append(out.notes, "span file: "+path)
	return values, t.published + attempted, attempted - ok, nil
}

// addLatency records a phase's latency quantiles for the trace file; p99 and
// max live only there, ungated.
func addLatency(into map[string]float64, phase string, sortedMs []float64) {
	for label, p := range map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99, "max": 1} {
		into[phase+"/"+label] = percentile(sortedMs, p)
	}
}

// shardedReplay runs the workload's longest pure Sched.Run stretch on the
// two-shard engine. It is reported, not gated: on a two-core shared box two
// shard workers do not give a repeatable wall time.
func shardedReplay(wl *simWorkload, opt options, base *simReplay) (shardedStats, error) {
	var sh shardedStats
	spec := wl.spec(opt.seed, opt.quick)
	spec.Shards = 2
	o, err := deploy.Build(spec)
	if err != nil {
		return sh, err
	}
	o.StartAll()
	t0 := time.Now()
	o.Sched.Run(wl.shardedHorizon)
	sh.wall = time.Since(t0)
	if eng := o.Engine(); eng != nil {
		ps := eng.ParallelStats()
		sh.windows, sh.crossShard, sh.speedupBound = ps.Windows, ps.CrossShard, ps.SpeedupBound()
		sh.avgBusy = ratio(float64(ps.BusyShardSum), float64(ps.Windows))
	}
	o.StopAll()
	if wl.shardedRegion == "converge" {
		sh.serialWall = base.converge
	} else {
		sh.serialWall = base.phaseNamed(wl.shardedRegion).wall()
	}
	return sh, nil
}

func runLiveWorkload(opt options, out *outcome) (map[string]float64, int, int, error) {
	if !opt.trace {
		res, err := runLive(opt.seed, opt.seconds, opt.quick, nil, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		out.notes = append(out.notes,
			"traffic crossed the host's loopback interface, not a link",
			fmt.Sprintf("%d set-ups, raw: %v, memory slowdown x%.3f", len(res.setups), res.setups, slowdown(res.setupProbes)),
			fmt.Sprintf("%d publishes in %d slices, %d lookups in %d slices, latency sample %d; raw body wall %.3fs, memory slowdown x%.3f",
				res.publish.ops, len(res.publish.slices), res.lookup.ops, len(res.lookup.slices), len(res.lookups.latMs),
				(res.publish.raw()+res.lookup.raw()).Seconds(), slowdown(res.probes)))
		return liveEndToEnd(res, minLookupSample(opt.quick))
	}
	tr := newTracer()
	tp := newTap(opt.seed)
	res, err := runLive(opt.seed, opt.seconds, opt.quick, tr, tp)
	if err != nil {
		return nil, 0, 0, err
	}
	c := buildCorpus(tp.corpus, opt.seed)
	kern, err := runKernels(c, kernelSizes{
		srdi:  int(res.totals["jxta_discovery_srdi_tuples"]) / liveRdvs,
		cache: res.publish.ops / liveClients,
		spec:  kernelNodeConfig(wlLive),
	}, opt.seed, true, kernelBudget(opt.quick))
	if err != nil {
		return nil, 0, 0, err
	}
	values := livePerLayer(res, tp, c, kern)
	l := &res.lookups
	tf := &traceFile{
		Workload: wlLive, Seed: opt.seed, Machine: describeMachine(),
		Notes: []string{
			"traffic crossed the host's loopback interface, not a link",
			"spans are client-side: one per publish and per lookup of the traced (every second) slices",
			"*.busy_share is a model: layer count x kernel ns / traced wall",
			fmt.Sprintf("kernel corpus: %d messages sampled from %d, %d advertisement documents", len(tp.corpus), tp.seen, len(c.docs)),
		},
		ReplayWallS: map[string]float64{"publish": res.publish.raw().Seconds(), "lookup": res.lookup.raw().Seconds()},
		Latency:     map[string]float64{},
		OkShares:    map[string]float64{"lookup": ratio(float64(l.ok), float64(l.attempted))},
		PerLayer:    values,
	}
	addLatency(tf.Latency, "lookup", l.latMs)
	for i, d := range res.setups {
		tf.ReplayWallS[fmt.Sprintf("setup/%d", i)] = d.Seconds()
	}
	path, err := tr.write(opt.outDir, tf)
	if err != nil {
		return nil, 0, 0, err
	}
	out.trace = tf
	out.notes = append(out.notes, "span file: "+path)
	return values, res.publish.ops + l.attempted, l.attempted - l.ok, nil
}
