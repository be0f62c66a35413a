package discovery

import (
	"jxta/internal/metrics"
)

// Collect registers the discovery service's series on reg, read from its
// own state when reg is encoded. Every Stats field is a counter
// (jxta_discovery_queries_sent_total, _queries_handled_total,
// _local_hits_total, _replica_forwards_total, _walks_started_total,
// _walk_hits_total, _delivered_total, _tuples_replicated_total), plus the
// jxta_discovery_srdi_keys / jxta_discovery_srdi_tuples gauges
// (rendezvous role; 0 on edges) and the
// jxta_discovery_query_latency_seconds histogram of remote-query
// round-trip times in virtual (sim) or wall (live) seconds.
func (s *Service) Collect(reg *metrics.Registry) {
	reg.HistogramFunc("jxta_discovery_query_latency_seconds",
		"Remote discovery query round-trip time, per response.",
		func() *metrics.Histogram { return s.latency })
	reg.CounterFunc("jxta_discovery_queries_sent_total", "Discovery queries issued by this peer.",
		func() uint64 { return s.Stats.QueriesSent })
	reg.CounterFunc("jxta_discovery_queries_handled_total", "Discovery queries handled at this rendezvous.",
		func() uint64 { return s.Stats.QueriesHandled })
	reg.CounterFunc("jxta_discovery_local_hits_total", "Queries answered from the local SRDI index.",
		func() uint64 { return s.Stats.LocalHits })
	reg.CounterFunc("jxta_discovery_replica_forwards_total", "Queries forwarded to the LC-DHT replica peer.",
		func() uint64 { return s.Stats.ReplicaForwards })
	reg.CounterFunc("jxta_discovery_walks_started_total", "Fallback walks started for unresolved queries.",
		func() uint64 { return s.Stats.WalksStarted })
	reg.CounterFunc("jxta_discovery_walk_hits_total", "Walked queries answered from an SRDI index.",
		func() uint64 { return s.Stats.WalkHits })
	reg.CounterFunc("jxta_discovery_delivered_total", "Queries answered by this peer as the publisher.",
		func() uint64 { return s.Stats.Delivered })
	reg.CounterFunc("jxta_discovery_tuples_replicated_total", "SRDI tuples replicated to peerview members.",
		func() uint64 { return s.Stats.TuplesReplicated })
	reg.GaugeFunc("jxta_discovery_srdi_keys", "Distinct keys in the SRDI index (rendezvous role).",
		func() float64 {
			if s.index == nil {
				return 0
			}
			return float64(s.index.Keys())
		})
	reg.GaugeFunc("jxta_discovery_srdi_tuples", "Tuples in the SRDI index (rendezvous role).",
		func() float64 {
			if s.index == nil {
				return 0
			}
			return float64(s.index.Size())
		})
}
