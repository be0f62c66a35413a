package experiments

import (
	"fmt"
	"io"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/pipe"
	"jxta/internal/socket"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// BandwidthSpec parameterizes the streaming benchmark family: throughput
// vs. message size and round-trip latency over the reliable socket layer —
// the measurements the JXTA research group's companion benchmarks run
// against the real stack, here over the simulated Grid'5000 substrate.
type BandwidthSpec struct {
	// R is the rendezvous count (default 4). The endpoints sit on the
	// first and last rendezvous' sites, so streams cross the WAN model.
	R int
	// Sizes are the per-message payload sizes swept (default 1 KiB–1 MiB
	// in powers of four).
	Sizes []int
	// VolumePerPoint is how many bytes each throughput point transfers
	// (default 2 MiB; the message count per point is VolumePerPoint/size).
	VolumePerPoint int
	// RTTSamples is the number of ping-pong exchanges averaged per size
	// (default 5).
	RTTSamples int
	// LossRate injects message loss into the network model (0 = lossless).
	LossRate float64
	// Seed is the master determinism seed.
	Seed int64
}

func (s BandwidthSpec) withDefaults() BandwidthSpec {
	if s.R <= 0 {
		s.R = 4
	}
	if len(s.Sizes) == 0 {
		s.Sizes = BandwidthDefaultSizes
	}
	if s.VolumePerPoint <= 0 {
		s.VolumePerPoint = 2 << 20
	}
	if s.RTTSamples <= 0 {
		s.RTTSamples = 5
	}
	return s
}

// BandwidthDefaultSizes is the default message-size sweep (1 KiB–1 MiB).
var BandwidthDefaultSizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// BandwidthPoint is one message size's measurements.
type BandwidthPoint struct {
	// SizeBytes is the per-message payload size.
	SizeBytes int `json:"size_bytes"`
	// Messages is how many messages of that size were streamed.
	Messages int `json:"messages"`
	// Bytes is the total payload volume moved.
	Bytes int `json:"-"`
	// ElapsedMs is the virtual time from first write to receiver EOF.
	ElapsedMs float64 `json:"elapsed_ms"`
	// ThroughputMBps is Bytes over ElapsedMs in MB/s (10^6 bytes).
	ThroughputMBps float64 `json:"throughput_mbps"`
	// RTTMs is the mean round-trip time of RTTSamples echoed messages of
	// this size.
	RTTMs float64 `json:"rtt_ms"`
	// Retx counts retransmitted segments during the throughput transfer.
	Retx uint64 `json:"retx"`
}

// BandwidthResult is one full sweep.
type BandwidthResult struct {
	Spec   BandwidthSpec
	Points []BandwidthPoint
	// Steps and NetStats extend the engine's replay contract to the
	// streaming subsystem: a fixed seed must reproduce them bit-for-bit.
	Steps    uint64
	NetStats transport.Stats
}

// RunBandwidth executes the sweep on the simulated Grid'5000 model: for
// each message size, a bulk stream (throughput) and a ping-pong exchange
// (RTT) between edge peers on the overlay's first and last rendezvous.
func RunBandwidth(spec BandwidthSpec) (BandwidthResult, error) {
	spec = spec.withDefaults()
	model := netmodel.Grid5000()
	model.LossRate = spec.LossRate
	o, err := deploy.Build(deploy.Spec{
		Seed:     spec.Seed,
		Model:    model,
		NumRdv:   spec.R,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "server"},
			{AttachTo: spec.R - 1, Count: 1, Prefix: "client"},
		},
	})
	if err != nil {
		return BandwidthResult{}, err
	}
	o.StartAll()
	server, client := o.Edges[0], o.Edges[1]
	o.Sched.Run(12 * time.Minute) // converge peerviews + leases

	res := BandwidthResult{Spec: spec}

	// Bulk sink: every accepted stream is drained; the sink records the
	// virtual completion time when it sees EOF.
	var sinkDone bool
	var sinkFinishedAt time.Duration
	var sinkBytes int
	sinkAdv := pipe.NewPipeAdv(server.ID, "bw-sink")
	if _, err := server.Socket.Listen(sinkAdv, func(c *socket.Conn) {
		buf := make([]byte, 64<<10)
		drain := func() {
			for {
				n, rerr := c.Read(buf)
				sinkBytes += n
				if rerr == io.EOF {
					sinkDone = true
					sinkFinishedAt = o.Sched.Now()
					return
				}
				if rerr != nil || n == 0 {
					return
				}
			}
		}
		c.OnReadable(drain)
	}); err != nil {
		return res, err
	}
	// Echo service for the RTT measurement.
	echoAdv := pipe.NewPipeAdv(server.ID, "bw-echo")
	if _, err := server.Socket.Listen(echoAdv, func(c *socket.Conn) {
		echoPump(c)
	}); err != nil {
		return res, err
	}
	o.Sched.Run(o.Sched.Now() + time.Minute) // pipe advertisement push

	for _, size := range spec.Sizes {
		pt := BandwidthPoint{SizeBytes: size}
		pt.Messages = spec.VolumePerPoint / size
		if pt.Messages < 1 {
			pt.Messages = 1
		}
		pt.Bytes = pt.Messages * size

		// --- Throughput: stream Messages payloads of Size bytes. ---
		conn, err := dialSim(o, client, sinkAdv.PipeID)
		if err != nil {
			return res, fmt.Errorf("experiments: bandwidth dial (size %d): %w", size, err)
		}
		sinkDone, sinkBytes = false, 0
		retxBefore := client.Socket.Stats.SegmentsRetx
		payload := deterministicPayload(size)
		start := o.Sched.Now()
		remaining := pt.Messages
		// A partially written message continues from its offset on the next
		// OnWritable, so track the in-flight remainder explicitly.
		var pending []byte
		writeMsgs := func() {
			for {
				if len(pending) == 0 {
					if remaining == 0 {
						conn.Close()
						return
					}
					remaining--
					pending = payload
				}
				for len(pending) > 0 {
					n, werr := conn.Write(pending)
					if werr != nil {
						return
					}
					if n == 0 {
						return // window full; OnWritable resumes
					}
					pending = pending[n:]
				}
			}
		}
		conn.OnWritable(writeMsgs)
		writeMsgs()
		deadline := o.Sched.Now() + 4*time.Hour
		for !sinkDone && o.Sched.Now() < deadline {
			o.Sched.Run(o.Sched.Now() + 100*time.Millisecond)
		}
		if !sinkDone {
			return res, fmt.Errorf("experiments: bandwidth transfer stalled (size %d: %d/%d bytes)",
				size, sinkBytes, pt.Bytes)
		}
		if sinkBytes != pt.Bytes {
			return res, fmt.Errorf("experiments: bandwidth transfer lost data (size %d: %d/%d bytes)",
				size, sinkBytes, pt.Bytes)
		}
		elapsed := sinkFinishedAt - start
		pt.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
		if elapsed > 0 {
			pt.ThroughputMBps = float64(pt.Bytes) / 1e6 / elapsed.Seconds()
		}
		pt.Retx = client.Socket.Stats.SegmentsRetx - retxBefore

		// --- RTT: ping-pong RTTSamples messages of Size bytes. ---
		echo, err := dialSim(o, client, echoAdv.PipeID)
		if err != nil {
			return res, fmt.Errorf("experiments: bandwidth echo dial (size %d): %w", size, err)
		}
		var rttSum time.Duration
		for s := 0; s < spec.RTTSamples; s++ {
			got := 0
			var finishedAt time.Duration
			buf := make([]byte, 64<<10)
			t0 := o.Sched.Now()
			echo.OnReadable(func() {
				for {
					n, rerr := echo.Read(buf)
					got += n
					if got >= size && finishedAt == 0 {
						finishedAt = o.Sched.Now()
					}
					if rerr != nil || n == 0 {
						return
					}
				}
			})
			rest := payload
			echo.OnWritable(func() {
				for len(rest) > 0 {
					n, werr := echo.Write(rest)
					if werr != nil || n == 0 {
						return
					}
					rest = rest[n:]
				}
			})
			for len(rest) > 0 {
				n, werr := echo.Write(rest)
				if werr != nil {
					return res, fmt.Errorf("experiments: echo write: %w", werr)
				}
				rest = rest[n:]
				if n == 0 {
					break
				}
			}
			rttDeadline := o.Sched.Now() + time.Hour
			for got < size && o.Sched.Now() < rttDeadline {
				o.Sched.Run(o.Sched.Now() + 10*time.Millisecond)
			}
			if got < size {
				return res, fmt.Errorf("experiments: echo stalled (size %d sample %d)", size, s)
			}
			rttSum += finishedAt - t0
		}
		echo.Close()
		o.Sched.Run(o.Sched.Now() + 5*time.Second) // drain teardown
		pt.RTTMs = float64(rttSum) / float64(spec.RTTSamples) / float64(time.Millisecond)

		res.Points = append(res.Points, pt)
	}
	res.Steps = o.Sched.Steps()
	res.NetStats = o.Net.Stats()
	o.StopAll()
	return res, nil
}

// dialSim dials a pipe and pumps virtual time until the handshake settles.
// Resolution itself is fire-and-forget discovery traffic, so under injected
// loss a whole attempt can evaporate; a few retries make the benchmark
// robust without masking stream-layer bugs (the stream has its own
// retransmission).
func dialSim(o *deploy.Overlay, client *node.Node, pipeID ids.ID) (*socket.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		var conn *socket.Conn
		var dialErr error
		client.Socket.Dial(pipeID, func(c *socket.Conn, err error) {
			conn, dialErr = c, err
		})
		deadline := o.Sched.Now() + 2*time.Minute
		for conn == nil && dialErr == nil && o.Sched.Now() < deadline {
			o.Sched.Run(o.Sched.Now() + 10*time.Millisecond)
		}
		if conn != nil {
			return conn, nil
		}
		lastErr = dialErr
		if lastErr == nil {
			lastErr = fmt.Errorf("experiments: dial timed out")
		}
	}
	return nil, lastErr
}

// echoPump wires a backpressure-correct echo loop onto a connection: bytes
// the send window cannot take yet are parked in a pending buffer and
// flushed on OnWritable before more input is read, so nothing is dropped —
// unread input simply accumulates in the receive buffer and throttles the
// remote sender through the advertised window.
func echoPump(c *socket.Conn) {
	buf := make([]byte, 64<<10)
	var pending []byte
	var pump func()
	pump = func() {
		for {
			for len(pending) > 0 {
				n, err := c.Write(pending)
				if err != nil {
					return
				}
				if n == 0 {
					return // window full; OnWritable resumes
				}
				pending = pending[n:]
			}
			n, err := c.Read(buf)
			if n > 0 {
				pending = append([]byte(nil), buf[:n]...)
				continue
			}
			if err != nil || n == 0 {
				return
			}
		}
	}
	c.OnReadable(pump)
	c.OnWritable(pump)
}

// deterministicPayload builds a position-dependent payload of n bytes.
func deterministicPayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*131 + i/257)
	}
	return out
}
