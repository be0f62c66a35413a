package endpoint

import (
	"jxta/internal/metrics"
)

// svcCounts is one service name's traffic. It hangs off the name's slot
// from the first message counted, so a name gets a series exactly when it
// has carried traffic.
type svcCounts struct {
	txMsgs, txBytes uint64
	rxMsgs, rxBytes uint64
}

// Collect registers the endpoint's series on reg, read from its own
// counters when reg is encoded:
//
//	jxta_endpoint_tx_messages_total{service=...} / jxta_endpoint_tx_bytes_total{service=...}
//	jxta_endpoint_rx_messages_total{service=...} / jxta_endpoint_rx_bytes_total{service=...}
//	jxta_endpoint_hello_sent_total, jxta_endpoint_hello_served_total,
//	jxta_endpoint_drops_total
//
// plus the jxta_endpoint_routes gauge (route-table size).
func (ep *Endpoint) Collect(reg *metrics.Registry) {
	perService := func(name, help string, read func(*svcCounts) uint64) {
		reg.CounterFuncs(name, help, "service", func(emit func(string, uint64)) {
			for i := range ep.slots {
				if n := ep.slots[i].n; n != nil {
					emit(ep.slots[i].name, read(n))
				}
			}
		})
	}
	perService("jxta_endpoint_tx_messages_total", "Messages sent, by destination service.",
		func(n *svcCounts) uint64 { return n.txMsgs })
	perService("jxta_endpoint_tx_bytes_total", "Wire bytes sent, by destination service.",
		func(n *svcCounts) uint64 { return n.txBytes })
	perService("jxta_endpoint_rx_messages_total", "Messages received, by destination service.",
		func(n *svcCounts) uint64 { return n.rxMsgs })
	perService("jxta_endpoint_rx_bytes_total", "Wire bytes received, by destination service.",
		func(n *svcCounts) uint64 { return n.rxBytes })
	reg.CounterFunc("jxta_endpoint_hello_sent_total", "Hello bootstrap requests sent.",
		func() uint64 { return ep.helloSent })
	reg.CounterFunc("jxta_endpoint_hello_served_total", "Hello bootstrap requests answered.",
		func() uint64 { return ep.helloServed })
	reg.CounterFunc("jxta_endpoint_drops_total", "Inbound messages dropped (malformed envelope, another peer's, no handler).",
		func() uint64 { return ep.Drops })
	reg.GaugeFunc("jxta_endpoint_routes", "Known direct routes (route-table size).",
		func() float64 { return float64(ep.routes.len()) })
}

// otherService is the one label every inbound message for a service this
// endpoint neither serves nor sends to is counted under.
const otherService = "other"

// rxCounts returns the counts for an inbound message, given the slot its
// service name found (nil: none). The name comes off the wire, so it counts
// under its own name only when that names a service local code registered or
// counted: a peer sending arbitrary names must not grow the slots or the
// series, and everything it sends is counted under otherService.
func (ep *Endpoint) rxCounts(s *slot) *svcCounts {
	if s == nil || (s.n == nil && s.h == nil) {
		s = ep.slotFor(otherService)
	}
	return s.counts()
}
