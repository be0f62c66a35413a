package resolver

import (
	"jxta/internal/metrics"
)

// resMetrics holds the resolver's instruments. The handler-keyed Vec
// children are cached on the handler registrations (namedHandler.recvd) so
// steady-state increments are lock-free.
type resMetrics struct {
	queriesSent  *metrics.Counter
	queriesRecvd *metrics.CounterVec
	responses    *metrics.Counter
	responsesIn  *metrics.Counter
	timeouts     *metrics.Counter
	forwards     *metrics.Counter
}

// Instrument (re-)registers the resolver's instruments on reg:
//
//	jxta_resolver_queries_sent_total, jxta_resolver_queries_received_total{handler=...},
//	jxta_resolver_responses_sent_total, jxta_resolver_responses_received_total,
//	jxta_resolver_timeouts_total, jxta_resolver_forwards_total
//
// plus the jxta_resolver_pending gauge (in-flight local queries).
func (s *Service) Instrument(reg *metrics.Registry) {
	s.m = &resMetrics{
		queriesSent:  reg.Counter("jxta_resolver_queries_sent_total", "Queries issued by this peer."),
		queriesRecvd: reg.CounterVec("jxta_resolver_queries_received_total", "Queries dispatched to a local handler.", "handler"),
		responses:    reg.Counter("jxta_resolver_responses_sent_total", "Responses sent back to query originators."),
		responsesIn:  reg.Counter("jxta_resolver_responses_received_total", "Responses delivered to local callbacks."),
		timeouts:     reg.Counter("jxta_resolver_timeouts_total", "Local queries that timed out unanswered."),
		forwards:     reg.Counter("jxta_resolver_forwards_total", "Queries forwarded along the walk."),
	}
	for i := range s.handlers {
		s.handlers[i].recvd = nil // cached against the previous registry
	}
	reg.GaugeFunc("jxta_resolver_pending", "In-flight locally issued queries.",
		func() float64 { return float64(len(s.pending)) })
}
