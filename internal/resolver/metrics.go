package resolver

import (
	"jxta/internal/metrics"
)

// counts is the resolver's own activity.
type counts struct {
	queriesSent uint64
	responses   uint64 // responses sent back to query originators
	responsesIn uint64 // responses delivered to local callbacks
	timeouts    uint64
	forwards    uint64
}

// Collect registers the resolver's series on reg, read from its own
// counters when reg is encoded:
//
//	jxta_resolver_queries_sent_total, jxta_resolver_queries_received_total{handler=...},
//	jxta_resolver_responses_sent_total, jxta_resolver_responses_received_total,
//	jxta_resolver_timeouts_total, jxta_resolver_forwards_total
//
// plus the jxta_resolver_pending gauge (in-flight local queries). Only
// registered handlers that have received a query get a handler label.
func (s *Service) Collect(reg *metrics.Registry) {
	reg.CounterFunc("jxta_resolver_queries_sent_total", "Queries issued by this peer.",
		func() uint64 { return s.n.queriesSent })
	reg.CounterFuncs("jxta_resolver_queries_received_total", "Queries dispatched to a local handler.", "handler",
		func(emit func(string, uint64)) {
			for _, nh := range s.handlers {
				if nh.recvd > 0 {
					emit(nh.name, nh.recvd)
				}
			}
		})
	reg.CounterFunc("jxta_resolver_responses_sent_total", "Responses sent back to query originators.",
		func() uint64 { return s.n.responses })
	reg.CounterFunc("jxta_resolver_responses_received_total", "Responses delivered to local callbacks.",
		func() uint64 { return s.n.responsesIn })
	reg.CounterFunc("jxta_resolver_timeouts_total", "Local queries that timed out unanswered.",
		func() uint64 { return s.n.timeouts })
	reg.CounterFunc("jxta_resolver_forwards_total", "Queries forwarded along the walk.",
		func() uint64 { return s.n.forwards })
	reg.GaugeFunc("jxta_resolver_pending", "In-flight locally issued queries.",
		func() float64 { return float64(len(s.pending)) })
}
