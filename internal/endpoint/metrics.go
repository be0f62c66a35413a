package endpoint

import (
	"jxta/internal/metrics"
)

// epSvc is the cached per-service counter set. The endpoint resolves each
// service name against the CounterVec once and increments the cached
// children afterwards, keeping the per-message cost at plain atomic adds
// (the Vec lookup itself takes a lock).
type epSvc struct {
	txMsgs, txBytes *metrics.Counter
	rxMsgs, rxBytes *metrics.Counter
}

// epMetrics holds the endpoint's instruments.
type epMetrics struct {
	txMsgs, txBytes *metrics.CounterVec
	rxMsgs, rxBytes *metrics.CounterVec
	relays          *metrics.Counter
	helloSent       *metrics.Counter
	helloServed     *metrics.Counter
	svc             map[string]*epSvc
}

// Instrument (re-)registers the endpoint's instruments on reg. node.New
// calls it with the node's shared registry; New pre-instruments against a
// private registry so the hot paths never nil-check. Counters:
//
//	jxta_endpoint_tx_messages_total{service=...} / jxta_endpoint_tx_bytes_total{service=...}
//	jxta_endpoint_rx_messages_total{service=...} / jxta_endpoint_rx_bytes_total{service=...}
//	jxta_endpoint_relays_total, jxta_endpoint_hello_sent_total,
//	jxta_endpoint_hello_served_total, jxta_endpoint_drops_total
//
// plus the jxta_endpoint_routes gauge (route-table size, sampled at
// encode time).
func (ep *Endpoint) Instrument(reg *metrics.Registry) {
	m := &epMetrics{
		txMsgs:      reg.CounterVec("jxta_endpoint_tx_messages_total", "Messages sent, by destination service.", "service"),
		txBytes:     reg.CounterVec("jxta_endpoint_tx_bytes_total", "Wire bytes sent, by destination service.", "service"),
		rxMsgs:      reg.CounterVec("jxta_endpoint_rx_messages_total", "Messages received, by destination service.", "service"),
		rxBytes:     reg.CounterVec("jxta_endpoint_rx_bytes_total", "Wire bytes received, by destination service.", "service"),
		relays:      reg.Counter("jxta_endpoint_relays_total", "Transit messages forwarded toward another peer."),
		helloSent:   reg.Counter("jxta_endpoint_hello_sent_total", "Hello bootstrap requests sent."),
		helloServed: reg.Counter("jxta_endpoint_hello_served_total", "Hello bootstrap requests answered."),
		svc:         make(map[string]*epSvc),
	}
	reg.CounterFunc("jxta_endpoint_drops_total", "Messages dropped (no handler, TTL exhausted, no route).",
		func() uint64 { return ep.Drops })
	reg.GaugeFunc("jxta_endpoint_routes", "Known direct routes (route-table size).",
		func() float64 { return float64(len(ep.routes)) })
	ep.m = m
}

// otherService is the one label every inbound message for a service this
// endpoint neither serves nor sends to is counted under.
const otherService = "other"

// rxMetrics returns the counter set for an inbound message's service. The
// name comes off the wire, so it mints a counter set only when it names a
// registered service: a peer sending arbitrary names must not grow the cache
// or the registry, and everything it sends is counted under otherService.
func (ep *Endpoint) rxMetrics(service []byte, registered bool) *epSvc {
	if sc, ok := ep.m.svc[string(service)]; ok {
		return sc
	}
	if !registered {
		return ep.svcMetrics(otherService)
	}
	return ep.svcMetrics(string(service))
}

// svcMetrics returns the cached counter set for a service named by local
// code, resolving the Vec children on first use. Runs in env-serialized
// context only.
func (ep *Endpoint) svcMetrics(service string) *epSvc {
	if sc, ok := ep.m.svc[service]; ok {
		return sc
	}
	sc := &epSvc{
		txMsgs:  ep.m.txMsgs.With(service),
		txBytes: ep.m.txBytes.With(service),
		rxMsgs:  ep.m.rxMsgs.With(service),
		rxBytes: ep.m.rxBytes.With(service),
	}
	ep.m.svc[service] = sc
	return sc
}
