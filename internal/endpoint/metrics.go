package endpoint

import (
	"jxta/internal/metrics"
)

// epSvc is the cached per-service counter set, held on the service's slot.
// The endpoint resolves each service name against the CounterVec once and
// increments the cached children afterwards, keeping the per-message cost at
// plain atomic adds (the Vec lookup itself takes a lock).
type epSvc struct {
	txMsgs, txBytes *metrics.Counter
	rxMsgs, rxBytes *metrics.Counter
}

// epMetrics holds the endpoint's instruments.
type epMetrics struct {
	txMsgs, txBytes *metrics.CounterVec
	rxMsgs, rxBytes *metrics.CounterVec
	helloSent       *metrics.Counter
	helloServed     *metrics.Counter
}

// Instrument (re-)registers the endpoint's instruments on reg. node.New
// calls it with the node's shared registry; New pre-instruments against a
// private registry so the hot paths never nil-check. Counters:
//
//	jxta_endpoint_tx_messages_total{service=...} / jxta_endpoint_tx_bytes_total{service=...}
//	jxta_endpoint_rx_messages_total{service=...} / jxta_endpoint_rx_bytes_total{service=...}
//	jxta_endpoint_hello_sent_total, jxta_endpoint_hello_served_total,
//	jxta_endpoint_drops_total
//
// plus the jxta_endpoint_routes gauge (route-table size, sampled at
// encode time).
func (ep *Endpoint) Instrument(reg *metrics.Registry) {
	m := &epMetrics{
		txMsgs:      reg.CounterVec("jxta_endpoint_tx_messages_total", "Messages sent, by destination service.", "service"),
		txBytes:     reg.CounterVec("jxta_endpoint_tx_bytes_total", "Wire bytes sent, by destination service.", "service"),
		rxMsgs:      reg.CounterVec("jxta_endpoint_rx_messages_total", "Messages received, by destination service.", "service"),
		rxBytes:     reg.CounterVec("jxta_endpoint_rx_bytes_total", "Wire bytes received, by destination service.", "service"),
		helloSent:   reg.Counter("jxta_endpoint_hello_sent_total", "Hello bootstrap requests sent."),
		helloServed: reg.Counter("jxta_endpoint_hello_served_total", "Hello bootstrap requests answered."),
	}
	for i := range ep.slots {
		ep.slots[i].sc = nil // cached children belong to the previous registry
	}
	reg.CounterFunc("jxta_endpoint_drops_total", "Inbound messages dropped (malformed envelope, another peer's, no handler).",
		func() uint64 { return ep.Drops })
	reg.GaugeFunc("jxta_endpoint_routes", "Known direct routes (route-table size).",
		func() float64 { return float64(ep.routes.len()) })
	ep.m = m
}

// otherService is the one label every inbound message for a service this
// endpoint neither serves nor sends to is counted under.
const otherService = "other"

// rxMetrics returns the counter set for an inbound message, given the slot
// its service name found (nil: none). The name comes off the wire, so it
// mints a counter set only when it names a registered service: a peer
// sending arbitrary names must not grow the slots or the registry, and
// everything it sends is counted under otherService.
func (ep *Endpoint) rxMetrics(s *slot) *epSvc {
	if s == nil || (s.sc == nil && s.h == nil) {
		s = ep.slotFor(otherService)
	}
	return ep.counters(s)
}

// counters returns the slot's cached counter set, resolving the Vec children
// on first use. Runs in env-serialized context only.
func (ep *Endpoint) counters(s *slot) *epSvc {
	if s.sc == nil {
		s.sc = &epSvc{
			txMsgs:  ep.m.txMsgs.With(s.name),
			txBytes: ep.m.txBytes.With(s.name),
			rxMsgs:  ep.m.rxMsgs.With(s.name),
			rxBytes: ep.m.rxBytes.With(s.name),
		}
	}
	return s.sc
}
