package rendezvous

import (
	"jxta/internal/ids"
	"jxta/internal/metrics"
)

// counts is the rendezvous service's own activity, in both roles.
type counts struct {
	granted     uint64
	renewed     uint64
	expired     uint64
	cancelled   uint64
	requests    uint64
	timeouts    uint64
	elections   uint64
	handoffs    uint64
	redirects   uint64
	walks       uint64
	rumorEvicts uint64
	promotions  uint64
	merges      uint64
}

// Collect registers the service's jxta_rendezvous_* series on reg, read
// from its own counters when reg is encoded: the lease, failover, election,
// handoff, walk, rumor, promotion and merge totals, and the gauges of the
// client table, the edge's lease and the rumor store.
func (s *Service) Collect(reg *metrics.Registry) {
	reg.CounterFunc("jxta_rendezvous_leases_granted_total", "New client leases granted.",
		func() uint64 { return s.m.granted })
	reg.CounterFunc("jxta_rendezvous_leases_renewed_total", "Client lease renewals granted.",
		func() uint64 { return s.m.renewed })
	reg.CounterFunc("jxta_rendezvous_leases_expired_total", "Client leases expired by the sweep.",
		func() uint64 { return s.m.expired })
	reg.CounterFunc("jxta_rendezvous_leases_cancelled_total", "Client leases cancelled by the edge.",
		func() uint64 { return s.m.cancelled })
	reg.CounterFunc("jxta_rendezvous_lease_requests_total", "Lease requests sent (edge role).",
		func() uint64 { return s.m.requests })
	reg.CounterFunc("jxta_rendezvous_lease_timeouts_total", "Lease requests that timed out (failover trigger).",
		func() uint64 { return s.m.timeouts })
	reg.CounterFunc("jxta_rendezvous_elections_total", "Successor elections run after candidate exhaustion.",
		func() uint64 { return s.m.elections })
	reg.CounterFunc("jxta_rendezvous_handoffs_total", "Graceful lease-state handoffs sent.",
		func() uint64 { return s.m.handoffs })
	reg.CounterFunc("jxta_rendezvous_redirects_followed_total", "Redirects accepted and followed (edge role).",
		func() uint64 { return s.m.redirects })
	reg.CounterFunc("jxta_rendezvous_walks_started_total", "Directional peerview walks originated.",
		func() uint64 { return s.m.walks })
	reg.CounterFunc("jxta_rendezvous_rumor_evictions_total", "Tier rumors evicted by aging sweeps.",
		func() uint64 { return s.m.rumorEvicts })
	reg.CounterFunc("jxta_rendezvous_promotions_total", "Edge-to-rendezvous role switches.",
		func() uint64 { return s.m.promotions })
	reg.CounterFunc("jxta_rendezvous_merges_total", "Completed island-merge handshake legs.",
		func() uint64 { return s.m.merges })
	reg.GaugeFunc("jxta_rendezvous_clients", "Edges currently holding a lease here (roster size).",
		func() float64 {
			if s.srv == nil {
				return 0
			}
			return float64(len(s.srv.clients))
		})
	reg.GaugeFunc("jxta_rendezvous_connected", "1 when this edge holds a lease, 0 otherwise.",
		func() float64 {
			if s.cli.connectedTo.IsNil() {
				return 0
			}
			return 1
		})
	reg.GaugeFunc("jxta_rendezvous_rumor_store_size", "Tier identities in the rumor store.",
		func() float64 { return float64(s.rumors.Len()) })
}

// Trace returns the service's protocol event ring: lease-acquired/lease-lost,
// lease-timeout, election, promotion, handoff, redirect and island-merge
// events, timestamped with the env's clock.
func (s *Service) Trace() *metrics.Trace { return s.trace }

// traceEvent records a protocol transition with the env's current
// (virtual) timestamp.
func (c *core) traceEvent(typ string, peer ids.ID) {
	detail := ""
	if !peer.IsNil() {
		detail = peer.Short()
	}
	c.trace.Record(c.env.Now(), typ, detail)
}
