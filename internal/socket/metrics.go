package socket

import (
	"jxta/internal/metrics"
)

// Instrument (re-)registers the stream layer's instruments on reg. Every
// Stats field is exported as a counter (jxta_socket_conns_dialed_total,
// _conns_accepted_total, _segments_sent_total, _segments_retx_total,
// _bytes_sent_total, _bytes_delivered_total, _segments_dup_total,
// _window_stalls_total) plus the jxta_socket_open_conns gauge; all are
// collector-backed Func instruments, so the service stores none.
func (s *Service) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("jxta_socket_conns_dialed_total", "Outbound connections dialed.",
		func() uint64 { return s.Stats.ConnsDialed })
	reg.CounterFunc("jxta_socket_conns_accepted_total", "Inbound connections accepted.",
		func() uint64 { return s.Stats.ConnsAccepted })
	reg.CounterFunc("jxta_socket_segments_sent_total", "Data segments transmitted.",
		func() uint64 { return s.Stats.SegmentsSent })
	reg.CounterFunc("jxta_socket_segments_retx_total", "Segments retransmitted after RTO.",
		func() uint64 { return s.Stats.SegmentsRetx })
	reg.CounterFunc("jxta_socket_bytes_sent_total", "Application payload bytes handed to the network.",
		func() uint64 { return s.Stats.BytesSent })
	reg.CounterFunc("jxta_socket_bytes_delivered_total", "In-order bytes made readable.",
		func() uint64 { return s.Stats.BytesDelivered })
	reg.CounterFunc("jxta_socket_segments_dup_total", "Duplicate segments received at or below the ack point.",
		func() uint64 { return s.Stats.SegmentsDup })
	reg.CounterFunc("jxta_socket_window_stalls_total", "Times a sender stalled on a closed flow window.",
		func() uint64 { return s.Stats.WindowStalls })
	reg.GaugeFunc("jxta_socket_open_conns", "Open stream connections.",
		func() float64 { return float64(len(s.conns)) })
}
