package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one metric of the benchmark. The end-to-end list and its
// bounds are mirrored in BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64
}

// exactInSim are the end-to-end metrics that are counts or virtual time in
// the simulated workloads: there a fixed seed gives them bit for bit.
var exactInSim = map[string]bool{
	"lookup_p50_ms": true, "lookup_p90_ms": true, "ok_share": true, "view_coverage": true,
}

// minLookupSample is the fewest successful lookups a latency percentile is
// reported from (-quick populations are too small for it and use a tenth).
func minLookupSample(quick bool) int {
	if quick {
		return 100
	}
	return 1000
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"lookup_p50_ms", "ms", "lower", 0.25},
	{"lookup_p90_ms", "ms", "lower", 0.25},
	{"ok_share", "1", "higher", 0.002},
	{"view_coverage", "1", "higher", 0.01},
	{"allocs_per_event", "1", "lower", 0.04},
	{"bytes_per_event", "B", "lower", 0.05},
	{"heap_bytes_per_peer", "B", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer lists the traced run's metrics, <module>.<metric>. They carry no
// bound: they explain a move in an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{Name: "document.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "document.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "document.marshal_allocs", Unit: "count", Better: "lower"},
	{Name: "document.unmarshal_allocs", Unit: "count", Better: "lower"},
	{Name: "advertisement.encode_xml_ns", Unit: "ns", Better: "lower"},
	{Name: "advertisement.decode_xml_ns", Unit: "ns", Better: "lower"},
	{Name: "advertisement.encode_xml_allocs", Unit: "count", Better: "lower"},
	{Name: "advertisement.decode_xml_allocs", Unit: "count", Better: "lower"},
	{Name: "advertisement.docs_per_msg", Unit: "1", Better: "lower"},
	{Name: "advertisement.busy_share", Unit: "1", Better: "lower"},
	{Name: "advstore.intern_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "advstore.intern_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "advstore.intern_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "advstore.hit_ratio", Unit: "1", Better: "higher"},
	{Name: "advstore.len", Unit: "count", Better: "lower"},
	{Name: "message.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "message.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "message.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "message.marshal_allocs", Unit: "count", Better: "lower"},
	{Name: "message.unmarshal_allocs", Unit: "count", Better: "lower"},
	{Name: "message.clone_allocs", Unit: "count", Better: "lower"},
	{Name: "message.mean_bytes", Unit: "B", Better: "lower"},
	{Name: "message.busy_share", Unit: "1", Better: "lower"},
	{Name: "ids.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "ids.string_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.events", Unit: "count", Better: "lower"},
	{Name: "simnet.pending_peak", Unit: "count", Better: "lower"},
	{Name: "simnet.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.busy_share", Unit: "1", Better: "lower"},
	{Name: "simnet.sharded2_wall_s", Unit: "s", Better: "lower"},
	{Name: "simnet.sharded2_speedup_wall", Unit: "1", Better: "higher"},
	{Name: "simnet.speedup_bound", Unit: "1", Better: "higher"},
	{Name: "simnet.windows", Unit: "count", Better: "lower"},
	{Name: "simnet.cross_shard", Unit: "count", Better: "lower"},
	{Name: "simnet.avg_busy", Unit: "1", Better: "higher"},
	{Name: "transport.msgs", Unit: "count", Better: "lower"},
	{Name: "transport.bytes", Unit: "B", Better: "lower"},
	{Name: "transport.dropped", Unit: "count", Better: "lower"},
	{Name: "transport.msgs_per_event", Unit: "1", Better: "lower"},
	{Name: "transport.sim_send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.sim_send_deliver_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.busy_share", Unit: "1", Better: "lower"},
	{Name: "transport.tcp_send_recv_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_send_recv_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_conns", Unit: "count", Better: "lower"},
	{Name: "endpoint.send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "endpoint.send_deliver_allocs", Unit: "count", Better: "lower"},
	{Name: "endpoint.drops", Unit: "count", Better: "lower"},
	{Name: "peerview.msgs", Unit: "count", Better: "lower"},
	{Name: "peerview.bytes", Unit: "B", Better: "lower"},
	{Name: "peerview.probes", Unit: "count", Better: "lower"},
	{Name: "peerview.referral_advs", Unit: "count", Better: "lower"},
	{Name: "peerview.evictions", Unit: "count", Better: "lower"},
	{Name: "peerview.mean_view", Unit: "count", Better: "higher"},
	{Name: "rendezvous.msgs", Unit: "count", Better: "lower"},
	{Name: "rendezvous.lease_renewals", Unit: "count", Better: "lower"},
	{Name: "rendezvous.failovers", Unit: "count", Better: "lower"},
	{Name: "rendezvous.promotions", Unit: "count", Better: "lower"},
	{Name: "rendezvous.merges", Unit: "count", Better: "lower"},
	{Name: "resolver.queries", Unit: "count", Better: "lower"},
	{Name: "resolver.responses", Unit: "count", Better: "lower"},
	{Name: "resolver.timeouts", Unit: "count", Better: "lower"},
	{Name: "discovery.publishes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "discovery.lookups_per_s", Unit: "1/s", Better: "higher"},
	{Name: "discovery.msgs_per_lookup", Unit: "1", Better: "lower"},
	{Name: "discovery.srdi_pushes", Unit: "count", Better: "lower"},
	{Name: "discovery.walk_share", Unit: "1", Better: "lower"},
	{Name: "discovery.hops_mean", Unit: "1", Better: "lower"},
	{Name: "discovery.rereplications", Unit: "count", Better: "lower"},
	{Name: "srdi.add_ns", Unit: "ns", Better: "lower"},
	{Name: "srdi.publishers_ns", Unit: "ns", Better: "lower"},
	{Name: "srdi.tuples", Unit: "count", Better: "lower"},
	{Name: "cm.put_ns", Unit: "ns", Better: "lower"},
	{Name: "cm.search_ns", Unit: "ns", Better: "lower"},
	{Name: "cm.put_allocs", Unit: "count", Better: "lower"},
	{Name: "cm.records", Unit: "count", Better: "lower"},
	{Name: "node.new_ns", Unit: "ns", Better: "lower"},
	{Name: "node.new_allocs", Unit: "count", Better: "lower"},
	{Name: "node.hib_wakes", Unit: "count", Better: "lower"},
	{Name: "node.hib_freezes", Unit: "count", Better: "lower"},
	{Name: "node.hibernating_share", Unit: "1", Better: "higher"},
	{Name: "deploy.build_s", Unit: "s", Better: "lower"},
	{Name: "deploy.start_s", Unit: "s", Better: "lower"},
	{Name: "deploy.stop_s", Unit: "s", Better: "lower"},
	{Name: "metrics.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "1", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "1", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is a run's report plus what only people read.
type outcome struct {
	report
	workload string
	seed     int64
	notes    []string
	trace    *traceFile
}

// fill turns measured values into the reported map and refuses a run that
// missed one: a metric may not silently disappear.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// agree checks the determinism contract between two replays of one seed:
// the same phases, the same events in every slice, the same messages and
// the same lookup outcomes. probe says whether both ran the probe phases.
func agree(a, b *simReplay) error {
	n := len(a.phases)
	if len(b.phases) < n {
		n = len(b.phases)
	}
	for i := 0; i < n; i++ {
		pa, pb := a.phases[i], b.phases[i]
		if pa.name != pb.name || len(pa.slices) != len(pb.slices) || pa.steps != pb.steps || pa.msgs != pb.msgs {
			return fmt.Errorf("replays disagree in phase %s: %d/%d slices, %d/%d steps, %d/%d messages",
				pa.name, len(pa.slices), len(pb.slices), pa.steps, pb.steps, pa.msgs, pb.msgs)
		}
		for j := range pa.slices {
			if pa.slices[j].steps != pb.slices[j].steps {
				return fmt.Errorf("replays disagree in phase %s, slice %d: %d and %d steps", pa.name, j, pa.slices[j].steps, pb.slices[j].steps)
			}
		}
	}
	for name, la := range a.lookups {
		lb, ok := b.lookups[name]
		if !ok {
			continue
		}
		if la.attempted != lb.attempted || la.ok != lb.ok || percentile(la.latMs, 0.5) != percentile(lb.latMs, 0.5) {
			return fmt.Errorf("replays disagree on the lookups of phase %s", name)
		}
	}
	return nil
}

// bodySlowdown is the memory-system slowdown over one replay's body phases.
func bodySlowdown(r *simReplay) float64 {
	var probes []time.Duration
	for _, p := range r.phases {
		if p.body {
			probes = append(probes, p.probes...)
		}
	}
	return slowdown(probes)
}

// robustBody sums, over the slices of the body phases, the smallest wall
// time any replay took for that slice, each replay's times first divided by
// its memory-system slowdown. Replays of a seed execute the same events per
// slice, so what differs is host noise, and noise only adds. CPU time is
// accounted in scheduler ticks, too coarse for a slice of tens of
// milliseconds, so it takes its minimum over replays phase by phase.
func robustBody(reps []*simReplay) (wall, cpu time.Duration, events uint64) {
	slow := make([]float64, len(reps))
	for i, r := range reps {
		slow[i] = bodySlowdown(r)
	}
	for i, p := range reps[0].phases {
		if !p.body {
			continue
		}
		events += p.steps
		phaseCPU := math.Inf(1)
		for k, r := range reps {
			var c time.Duration
			for _, s := range r.phases[i].slices {
				c += s.cpu
			}
			phaseCPU = math.Min(phaseCPU, float64(c)/slow[k])
		}
		cpu += time.Duration(phaseCPU)
		for j := range p.slices {
			w := math.Inf(1)
			for k, r := range reps {
				w = math.Min(w, float64(r.phases[i].slices[j].wall)/slow[k])
			}
			wall += time.Duration(w)
		}
	}
	return wall, cpu, events
}

// simEndToEnd computes the end-to-end metrics from the replays of one run.
func simEndToEnd(reps []*simReplay, setups []time.Duration, minSample int) (map[string]float64, int, int, error) {
	for _, r := range reps[1:] {
		if err := agree(reps[0], r); err != nil {
			return nil, 0, 0, err
		}
	}
	first := reps[0]
	wall, cpu, events := robustBody(reps)
	v := make(map[string]float64)
	var setupS, allocs, bytes, heap []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, r := range reps {
		var mem memSample
		for _, p := range r.phases {
			if p.body {
				mem.mallocs += p.mem.mallocs
				mem.bytes += p.mem.bytes
			}
		}
		allocs = append(allocs, float64(mem.mallocs)/float64(events))
		bytes = append(bytes, float64(mem.bytes)/float64(events))
		heap = append(heap, r.heapPerPeer)
	}
	v["setup_s"] = median(setupS)
	v["wall_s"] = wall.Seconds()
	v["cpu_s"] = cpu.Seconds()
	v["events_per_s"] = float64(events) / wall.Seconds()
	v["allocs_per_event"] = slices.Min(allocs)
	v["bytes_per_event"] = slices.Min(bytes)
	v["heap_bytes_per_peer"] = slices.Min(heap)
	v["view_coverage"] = first.coverage

	steady := first.lookups["lookup"]
	if steady == nil || len(steady.latMs) < minSample {
		return nil, 0, 0, fmt.Errorf("the lookup phase has fewer than %d successful lookups", minSample)
	}
	v["lookup_p50_ms"] = percentile(steady.latMs, 0.5)
	v["lookup_p90_ms"] = percentile(steady.latMs, 0.9)
	attempted, ok := 0, 0
	for _, l := range first.lookups {
		attempted += l.attempted
		ok += l.ok
	}
	v["ok_share"] = float64(ok) / float64(attempted)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, 0, 0, err
	}
	v["peak_rss_mb"] = rss
	return v, first.published + attempted, attempted - ok, nil
}

// liveEndToEnd computes the end-to-end metrics of a live run.
func liveEndToEnd(res *liveResult, minSample int) (map[string]float64, int, int, error) {
	v := make(map[string]float64)
	var setupS []float64
	for _, d := range res.setups {
		setupS = append(setupS, d.Seconds())
	}
	pw, pc := res.publish.robust()
	lw, lc := res.lookup.robust()
	slow := slowdown(res.probes)
	wall, cpu := time.Duration(float64(pw+lw)/slow), time.Duration(float64(pc+lc)/slow)
	events := float64(res.publish.rx + res.lookup.rx)
	// A live set-up is all but 5 ms warm-up operations, the body's own code:
	// it is calibrated like the body.
	v["setup_s"] = median(setupS) / slowdown(res.setupProbes)
	v["wall_s"] = wall.Seconds()
	v["cpu_s"] = cpu.Seconds()
	v["events_per_s"] = events / wall.Seconds()
	v["allocs_per_event"] = float64(res.mem.mallocs) / events
	v["bytes_per_event"] = float64(res.mem.bytes) / events
	v["heap_bytes_per_peer"] = res.heapPerPeer
	v["view_coverage"] = res.coverage
	l := &res.lookups
	if len(l.latMs) < minSample {
		return nil, 0, 0, fmt.Errorf("the lookup phase has fewer than %d successful lookups", minSample)
	}
	v["lookup_p50_ms"] = percentile(l.latMs, 0.5) / slow
	v["lookup_p90_ms"] = percentile(l.latMs, 0.9) / slow
	v["ok_share"] = float64(l.ok) / float64(l.attempted)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, 0, 0, err
	}
	v["peak_rss_mb"] = rss
	return v, res.publish.ops + l.attempted, l.attempted - l.ok, nil
}
