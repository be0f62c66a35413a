package peerview

import (
	"jxta/internal/metrics"
)

// counts is the peerview's own activity.
type counts struct {
	probes        uint64
	updates       uint64
	adds          uint64
	expiries      uint64
	probeEvicts   uint64
	mergesStarted uint64
	rounds        uint64
}

// Collect registers the peerview's series on reg, read from its own
// counters when reg is encoded:
//
//	jxta_peerview_probes_sent_total, jxta_peerview_updates_sent_total,
//	jxta_peerview_adds_total, jxta_peerview_expiries_total,
//	jxta_peerview_probe_evictions_total, jxta_peerview_merges_started_total,
//	jxta_peerview_rounds_total
//
// plus the jxta_peerview_size gauge (view size excluding self, the
// paper's l).
func (pv *PeerView) Collect(reg *metrics.Registry) {
	reg.CounterFunc("jxta_peerview_probes_sent_total", "Peerview probes sent (Algorithm 1).",
		func() uint64 { return pv.n.probes })
	reg.CounterFunc("jxta_peerview_updates_sent_total", "Peerview updates sent.",
		func() uint64 { return pv.n.updates })
	reg.CounterFunc("jxta_peerview_adds_total", "Members added to the local view.",
		func() uint64 { return pv.n.adds })
	reg.CounterFunc("jxta_peerview_expiries_total", "Members dropped by entry expiry.",
		func() uint64 { return pv.n.expiries })
	reg.CounterFunc("jxta_peerview_probe_evictions_total", "Members evicted by probe-timeout failure detection.",
		func() uint64 { return pv.n.probeEvicts })
	reg.CounterFunc("jxta_peerview_merges_started_total", "Merge handshakes initiated.",
		func() uint64 { return pv.n.mergesStarted })
	reg.CounterFunc("jxta_peerview_rounds_total", "Algorithm 1 loop iterations.",
		func() uint64 { return pv.n.rounds })
	reg.GaugeFunc("jxta_peerview_size", "Local peerview size excluding self (the paper's l).",
		func() float64 { return float64(len(pv.entries)) })
}
