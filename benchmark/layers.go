package main

import (
	"runtime"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/experiments"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/transport"
)

// layerCounts are the counters a traced replay reads from outside the
// program, with virtual time paused and before StopAll.
type layerCounts struct {
	totals             map[string]float64 // every node registry, summed
	steps              uint64
	net                transport.Stats
	advHits, advMisses uint64
	advLen             int
	srdiTuples         int // over every index
	srdiLargest        int
	cacheRecords       int
	cacheLargest       int
	endpointDrops      uint64
	tuplesReplicated   uint64
}

func collectCounts(o *deploy.Overlay) *layerCounts {
	c := &layerCounts{
		totals: experiments.CollectNodeMetrics(o, 0).Totals,
		steps:  o.Sched.Steps(),
		net:    o.Net.Stats(),
		advLen: o.AdvStore.Len(),
	}
	c.advHits, c.advMisses = o.AdvStore.Stats()
	for _, n := range o.Nodes() {
		if idx := n.Discovery.Index(); idx != nil {
			c.srdiTuples += idx.Size()
			if idx.Size() > c.srdiLargest {
				c.srdiLargest = idx.Size()
			}
		}
		recs := n.Cache.Len()
		c.cacheRecords += recs
		if recs > c.cacheLargest {
			c.cacheLargest = recs
		}
		c.endpointDrops += n.Endpoint.Drops
		c.tuplesReplicated += n.Discovery.Stats.TuplesReplicated
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shardedStats is the extra Shards=2 replay of a simulated workload's
// longest pure Sched.Run stretch.
type shardedStats struct {
	wall, serialWall time.Duration
	windows          uint64
	crossShard       uint64
	avgBusy          float64
	speedupBound     float64
}

// simPerLayer assembles the per-layer metrics of a traced simulated run:
// counts from the traced replay, costs from the kernels, and the model that
// multiplies the two (a *.busy_share is count × kernel cost ÷ traced wall:
// an estimate, not a measurement).
func simPerLayer(base, t *simReplay, tp *tap, c *corpus, kern map[string]float64, sh shardedStats) map[string]float64 {
	v := make(map[string]float64)
	for k, x := range kern {
		v[k] = x
	}
	cnt := t.counts
	var tracedWall time.Duration
	var mem memSample
	for _, p := range t.phases {
		tracedWall += p.wall()
		mem.gcCycles += p.mem.gcCycles
		mem.gcPause += p.mem.gcPause
	}
	tracedWall += t.converge
	wallNs := float64(tracedWall.Nanoseconds())
	msgs := float64(cnt.net.Messages)
	steps := float64(cnt.steps)

	v["advertisement.docs_per_msg"] = c.docsPerMsg
	v["advertisement.busy_share"] = msgs * c.docsPerMsg * (kern["advertisement.encode_xml_ns"] + kern["advertisement.decode_xml_ns"]) / wallNs
	v["advstore.hit_ratio"] = ratio(float64(cnt.advHits), float64(cnt.advHits+cnt.advMisses))
	v["advstore.len"] = float64(cnt.advLen)
	v["message.mean_bytes"] = ratio(float64(cnt.net.Bytes), msgs)
	v["message.busy_share"] = msgs * kern["message.clone_ns"] / wallNs
	v["simnet.events"] = steps
	v["simnet.pending_peak"] = float64(t.pendingPeak)
	v["simnet.busy_share"] = steps * kern["simnet.push_pop_ns"] / wallNs
	v["simnet.sharded2_wall_s"] = sh.wall.Seconds()
	v["simnet.sharded2_speedup_wall"] = ratio(sh.serialWall.Seconds(), sh.wall.Seconds())
	v["simnet.speedup_bound"] = sh.speedupBound
	v["simnet.windows"] = float64(sh.windows)
	v["simnet.cross_shard"] = float64(sh.crossShard)
	v["simnet.avg_busy"] = sh.avgBusy
	v["transport.msgs"] = msgs
	v["transport.bytes"] = float64(cnt.net.Bytes)
	v["transport.dropped"] = float64(cnt.net.Dropped)
	v["transport.msgs_per_event"] = ratio(msgs, steps)
	v["transport.busy_share"] = msgs * kern["transport.sim_send_deliver_ns"] / wallNs
	// No socket is opened by a simulated workload.
	v["transport.tcp_send_recv_ns"], v["transport.tcp_send_recv_allocs"], v["transport.tcp_conns"] = 0, 0, 0
	v["endpoint.drops"] = float64(cnt.endpointDrops)

	pv := tp.svc(peerview.ServiceName)
	v["peerview.msgs"], v["peerview.bytes"] = float64(pv.msgs), float64(pv.bytes)
	v["peerview.probes"] = cnt.totals["jxta_peerview_probes_sent_total"]
	v["peerview.referral_advs"] = float64(tp.referrals)
	v["peerview.evictions"] = cnt.totals["jxta_peerview_expiries_total"] + cnt.totals["jxta_peerview_probe_evictions_total"]
	v["peerview.mean_view"] = t.meanView
	v["rendezvous.msgs"] = float64(tp.svc(rendezvous.LeaseService).msgs + tp.svc(rendezvous.WalkService).msgs)
	v["rendezvous.lease_renewals"] = cnt.totals["jxta_rendezvous_leases_renewed_total"]
	v["rendezvous.failovers"] = cnt.totals["jxta_rendezvous_lease_timeouts_total"]
	v["rendezvous.promotions"] = float64(t.promotions)
	v["rendezvous.merges"] = float64(t.merges)
	v["resolver.queries"] = cnt.totals["jxta_resolver_queries_sent_total"]
	v["resolver.responses"] = cnt.totals["jxta_resolver_responses_received_total"]
	v["resolver.timeouts"] = cnt.totals["jxta_resolver_timeouts_total"]

	attempted, ok, hops := 0, 0, 0
	for _, l := range t.lookups {
		attempted += l.attempted
		ok += l.ok
		hops += l.hops
	}
	v["discovery.publishes_per_s"] = ratio(float64(t.published), t.phaseNamed("publish").wall().Seconds())
	v["discovery.lookups_per_s"] = ratio(float64(t.lookups["lookup"].attempted), t.phaseNamed("lookup").wall().Seconds())
	v["discovery.msgs_per_lookup"] = ratio(float64(t.phaseNamed("lookup").msgs), float64(t.lookups["lookup"].attempted))
	v["discovery.srdi_pushes"] = float64(tp.svc(discovery.SRDIService).msgs)
	v["discovery.walk_share"] = ratio(float64(t.walks), float64(attempted))
	v["discovery.hops_mean"] = ratio(float64(hops), float64(ok))
	v["discovery.rereplications"] = float64(cnt.tuplesReplicated)
	v["srdi.tuples"] = float64(cnt.srdiTuples)
	v["cm.records"] = float64(cnt.cacheRecords)
	v["node.hib_wakes"], v["node.hib_freezes"] = float64(t.hibWakes), float64(t.hibFreezes)
	v["node.hibernating_share"] = ratio(float64(t.hibernating), float64(t.edges))
	v["deploy.build_s"], v["deploy.start_s"], v["deploy.stop_s"] = t.build.Seconds(), t.start.Seconds(), t.stop.Seconds()
	v["runtime.gc_cycles"] = float64(mem.gcCycles)
	v["runtime.gc_pause_ms"] = float64(mem.gcPause) / float64(time.Millisecond)
	v["runtime.gc_cpu_share"] = gcCPUShare()

	var bodyBase, bodyTraced time.Duration
	for i, p := range base.phases {
		if p.body {
			bodyBase += p.wall()
			bodyTraced += t.phases[i].wall()
		}
	}
	v["trace.overhead_share"] = ratio((bodyTraced - bodyBase).Seconds(), bodyBase.Seconds())
	return v
}

// gcCPUShare is the share of the process's available CPU the collector has
// used since start.
func gcCPUShare() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}

// livePerLayer is simPerLayer for the live run. The tap is on in every
// second slice only (the others are the untraced reference for
// trace.overhead_share), so its counts cover half the operations; the
// registry counts cover the peers' whole life, set-up included.
func livePerLayer(res *liveResult, tp *tap, c *corpus, kern map[string]float64) map[string]float64 {
	totals, mem := res.totals, res.mem
	v := make(map[string]float64)
	for k, x := range kern {
		v[k] = x
	}
	var untracedLook, tracedLook []float64
	wallNs := 0.0
	for _, ph := range []*livePhase{&res.publish, &res.lookup} {
		for _, s := range ph.slices {
			if s.traced {
				wallNs += float64(s.wall.Nanoseconds())
			}
		}
	}
	for _, s := range res.lookup.slices {
		if s.traced {
			tracedLook = append(tracedLook, float64(s.wall))
		} else {
			untracedLook = append(untracedLook, float64(s.wall))
		}
	}
	msgs := float64(tp.seen)

	v["advertisement.docs_per_msg"] = c.docsPerMsg
	v["advertisement.busy_share"] = msgs * c.docsPerMsg * (kern["advertisement.encode_xml_ns"] + kern["advertisement.decode_xml_ns"]) / wallNs
	v["advstore.hit_ratio"], v["advstore.len"] = 0, 0 // live peers intern into the process-wide store, which has no per-run view
	v["message.mean_bytes"] = ratio(float64(tp.bytes), msgs)
	v["message.busy_share"] = msgs * (kern["message.marshal_ns"] + kern["message.unmarshal_ns"]) / wallNs
	// The scheduler and the simulated fabric do nothing on a live run.
	for _, k := range []string{"simnet.events", "simnet.pending_peak", "simnet.push_pop_ns", "simnet.busy_share",
		"simnet.sharded2_wall_s", "simnet.sharded2_speedup_wall", "simnet.speedup_bound", "simnet.windows",
		"simnet.cross_shard", "simnet.avg_busy", "transport.dropped"} {
		v[k] = 0
	}
	v["transport.msgs"] = msgs
	v["transport.bytes"] = float64(tp.bytes)
	v["transport.msgs_per_event"] = 1 // the live event is the message
	v["transport.busy_share"] = msgs * kern["transport.tcp_send_recv_ns"] / wallNs
	v["transport.tcp_conns"] = float64(res.conns)
	v["endpoint.drops"] = totals["jxta_endpoint_drops_total"]

	pv := tp.svc(peerview.ServiceName)
	v["peerview.msgs"], v["peerview.bytes"] = float64(pv.msgs), float64(pv.bytes)
	v["peerview.probes"] = totals["jxta_peerview_probes_sent_total"]
	v["peerview.referral_advs"] = float64(tp.referrals)
	v["peerview.evictions"] = totals["jxta_peerview_expiries_total"] + totals["jxta_peerview_probe_evictions_total"]
	v["peerview.mean_view"] = res.coverage * float64(liveRdvs-1)
	v["rendezvous.msgs"] = float64(tp.svc(rendezvous.LeaseService).msgs + tp.svc(rendezvous.WalkService).msgs)
	v["rendezvous.lease_renewals"] = totals["jxta_rendezvous_leases_renewed_total"]
	v["rendezvous.failovers"] = totals["jxta_rendezvous_lease_timeouts_total"]
	v["rendezvous.promotions"] = totals["jxta_rendezvous_promotions_total"]
	v["rendezvous.merges"] = totals["jxta_rendezvous_merges_total"]
	v["resolver.queries"] = totals["jxta_resolver_queries_sent_total"]
	v["resolver.responses"] = totals["jxta_resolver_responses_received_total"]
	v["resolver.timeouts"] = totals["jxta_resolver_timeouts_total"]
	pw, _ := res.publish.robust()
	lw, _ := res.lookup.robust()
	v["discovery.publishes_per_s"] = ratio(float64(res.publish.ops), pw.Seconds())
	v["discovery.lookups_per_s"] = ratio(float64(res.lookup.ops), lw.Seconds())
	v["discovery.msgs_per_lookup"] = ratio(float64(res.lookup.rx), float64(res.lookups.attempted))
	v["discovery.srdi_pushes"] = float64(tp.svc(discovery.SRDIService).msgs)
	v["discovery.walk_share"] = ratio(totals["jxta_discovery_walks_started_total"], float64(res.lookups.attempted))
	v["discovery.hops_mean"] = res.hopsMean
	v["discovery.rereplications"] = totals["jxta_discovery_tuples_replicated_total"]
	v["srdi.tuples"] = totals["jxta_discovery_srdi_tuples"]
	v["cm.records"] = totals["jxta_cache_records"]
	v["node.hib_wakes"], v["node.hib_freezes"], v["node.hibernating_share"] = 0, 0, 0 // hibernation needs the simulated clock
	v["deploy.build_s"], v["deploy.start_s"], v["deploy.stop_s"] = res.build.Seconds(), res.ready.Seconds(), res.stop.Seconds()
	v["runtime.gc_cycles"] = float64(mem.gcCycles)
	v["runtime.gc_pause_ms"] = float64(mem.gcPause) / float64(time.Millisecond)
	v["runtime.gc_cpu_share"] = gcCPUShare()
	v["trace.overhead_share"] = ratio(median(tracedLook)-median(untracedLook), median(untracedLook))
	return v
}
