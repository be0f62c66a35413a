package socket_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/pipe"
	"jxta/internal/socket"
	"jxta/internal/topology"
)

// rig deploys a converged overlay with a listener edge and a dialer edge.
type rig struct {
	t        *testing.T
	o        *deploy.Overlay
	listener *node.Node
	dialer   *node.Node
}

func newRig(t *testing.T, seed int64, model *netmodel.Model) *rig {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		Model:    model,
		NumRdv:   4,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "listener"},
			{AttachTo: 3, Count: 1, Prefix: "dialer"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	r := &rig{t: t, o: o, listener: o.Edges[0], dialer: o.Edges[1]}
	o.Sched.Run(12 * time.Minute) // converge peerviews + leases
	return r
}

func (r *rig) run(d time.Duration) { r.o.Sched.Run(r.o.Sched.Now() + d) }

// pattern builds a deterministic, position-dependent payload so reordering
// or duplication corrupts the comparison.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + i/251)
	}
	return out
}

// streamOut writes data progressively as window space opens, then closes.
func streamOut(t *testing.T, c *socket.Conn, data []byte) {
	t.Helper()
	done := false
	var send func()
	send = func() {
		if done {
			return
		}
		for len(data) > 0 {
			n, err := c.Write(data)
			if err != nil {
				t.Errorf("write: %v", err)
				done = true
				return
			}
			data = data[n:]
			if n == 0 {
				return // window full; OnWritable resumes
			}
		}
		done = true
		c.Close()
	}
	c.OnWritable(send)
	send()
}

// sink collects everything readable from a conn until EOF.
type sink struct {
	got []byte
	eof bool
	err error
}

func (k *sink) attach(c *socket.Conn) {
	buf := make([]byte, 64<<10)
	drain := func() {
		for {
			n, err := c.Read(buf)
			k.got = append(k.got, buf[:n]...)
			if err == io.EOF {
				k.eof = true
				return
			}
			if err != nil {
				k.err = err
				return
			}
			if n == 0 {
				return
			}
		}
	}
	c.OnReadable(drain)
	drain()
}

func TestListenDialTransfer(t *testing.T) {
	r := newRig(t, 1, nil)
	adv := pipe.NewPipeAdv(r.listener.ID, "svc")
	var server *socket.Conn
	serverSink := &sink{}
	if _, err := r.listener.Socket.Listen(adv, func(c *socket.Conn) {
		server = c
		serverSink.attach(c)
	}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute) // SRDI push of the pipe advertisement

	var client *socket.Conn
	r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		client = c
	})
	r.run(time.Minute)
	if client == nil {
		t.Fatal("dial never completed")
	}
	if !client.RemotePeer().Equal(r.listener.ID) {
		t.Fatal("connected to the wrong peer")
	}

	payload := pattern(100 << 10)
	streamOut(t, client, payload)
	r.run(time.Minute)
	if server == nil {
		t.Fatal("accept never fired")
	}
	if !serverSink.eof {
		t.Fatal("server never saw EOF")
	}
	if !bytes.Equal(serverSink.got, payload) {
		t.Fatalf("server received %d bytes, want %d (content mismatch=%v)",
			len(serverSink.got), len(payload), !bytes.Equal(serverSink.got, payload))
	}
}

func TestBidirectionalEcho(t *testing.T) {
	r := newRig(t, 2, nil)
	adv := pipe.NewPipeAdv(r.listener.ID, "echo")
	// The server echoes everything back (parking bytes its send window
	// cannot take yet) and closes when the client does.
	if _, err := r.listener.Socket.Listen(adv, func(c *socket.Conn) {
		buf := make([]byte, 32<<10)
		var pending []byte
		var pumpBack func()
		pumpBack = func() {
			for {
				for len(pending) > 0 {
					n, werr := c.Write(pending)
					if werr != nil {
						t.Errorf("echo write: %v", werr)
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
				if err == io.EOF {
					c.Close()
					return
				}
				if err != nil || n == 0 {
					return
				}
			}
		}
		c.OnReadable(pumpBack)
		c.OnWritable(pumpBack)
	}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)

	var client *socket.Conn
	clientSink := &sink{}
	r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		client = c
		clientSink.attach(c)
	})
	r.run(time.Minute)
	if client == nil {
		t.Fatal("dial never completed")
	}
	payload := pattern(64 << 10)
	streamOut(t, client, payload)
	r.run(2 * time.Minute)
	if !clientSink.eof {
		t.Fatal("client never saw the echo EOF")
	}
	if !bytes.Equal(clientSink.got, payload) {
		t.Fatalf("echo mismatch: got %d bytes want %d", len(clientSink.got), len(payload))
	}
}

func TestDialUnknownPipeFails(t *testing.T) {
	r := newRig(t, 3, nil)
	var gotErr error
	done := false
	r.dialer.Socket.Dial(ids.FromName(ids.KindPipe, "ghost"), func(c *socket.Conn, err error) {
		gotErr = err
		done = true
	})
	r.run(2 * time.Minute)
	if !done || gotErr == nil {
		t.Fatalf("dial to unknown pipe: done=%v err=%v", done, gotErr)
	}
}

// lossyTransfer runs a ≥1 MiB transfer over a lossy Grid'5000 model and
// returns the transcript needed for both correctness and determinism
// checks.
func lossyTransfer(t *testing.T, seed int64) (received []byte, retx uint64, steps uint64) {
	t.Helper()
	model := netmodel.Grid5000()
	model.LossRate = 0.02
	r := newRig(t, seed, model)
	adv := pipe.NewPipeAdv(r.listener.ID, "bulk")
	serverSink := &sink{}
	if _, err := r.listener.Socket.Listen(adv, func(c *socket.Conn) {
		serverSink.attach(c)
	}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)

	var client *socket.Conn
	r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		client = c
	})
	r.run(time.Minute)
	if client == nil {
		t.Fatal("dial never completed under loss")
	}
	payload := pattern(1 << 20) // 1 MiB
	streamOut(t, client, payload)
	r.run(10 * time.Minute) // generous: losses trigger RTO backoff
	if !serverSink.eof {
		t.Fatalf("transfer incomplete: %d/%d bytes", len(serverSink.got), len(payload))
	}
	if !bytes.Equal(serverSink.got, payload) {
		t.Fatal("lossy transfer corrupted the stream")
	}
	return serverSink.got, r.dialer.Socket.Stats.SegmentsRetx, r.o.Sched.Steps()
}

// TestLossyLinkRetransmission moves 1 MiB across a 2% lossy link and checks
// the stream arrives intact, losses actually occurred (retransmissions
// happened), and the whole run replays bit-identically under the seed.
func TestLossyLinkRetransmission(t *testing.T) {
	gotA, retxA, stepsA := lossyTransfer(t, 77)
	if retxA == 0 {
		t.Fatal("2% loss on a 1 MiB transfer caused no retransmissions — loss injection broken?")
	}
	gotB, retxB, stepsB := lossyTransfer(t, 77)
	if !bytes.Equal(gotA, gotB) || retxA != retxB || stepsA != stepsB {
		t.Fatalf("same-seed lossy transfer diverged: retx %d vs %d, steps %d vs %d",
			retxA, retxB, stepsA, stepsB)
	}
}

// TestFlowControlSmallWindow streams four windows' worth so the sender
// stalls on a closed flow window and only window updates (or probes) resume
// it.
func TestFlowControlSmallWindow(t *testing.T) {
	r := newRig(t, 5, nil)
	adv := pipe.NewPipeAdv(r.listener.ID, "narrow")
	serverSink := &sink{}
	if _, err := r.listener.Socket.Listen(adv, func(c *socket.Conn) {
		serverSink.attach(c)
	}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	var client *socket.Conn
	r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err == nil {
			client = c
		}
	})
	r.run(time.Minute)
	if client == nil {
		t.Fatal("dial failed")
	}
	payload := pattern(1 << 20) // 4x the 256 KiB window
	streamOut(t, client, payload)
	r.run(5 * time.Minute)
	if !serverSink.eof || !bytes.Equal(serverSink.got, payload) {
		t.Fatalf("windowed transfer incomplete: %d/%d bytes eof=%v",
			len(serverSink.got), len(payload), serverSink.eof)
	}
	if r.dialer.Socket.Stats.WindowStalls == 0 {
		t.Fatal("the sender never stalled on a closed window")
	}
}

// TestManyConcurrentStreams multiplexes several connections between the
// same pair of peers and checks isolation.
func TestManyConcurrentStreams(t *testing.T) {
	r := newRig(t, 6, nil)
	const streams = 5
	sinks := make([]*sink, streams)
	adv := pipe.NewPipeAdv(r.listener.ID, "multi")
	idx := 0
	if _, err := r.listener.Socket.Listen(adv, func(c *socket.Conn) {
		k := &sink{}
		sinks[idx%streams] = k
		idx++
		k.attach(c)
	}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	payloads := make([][]byte, streams)
	for i := 0; i < streams; i++ {
		i := i
		payloads[i] = []byte(fmt.Sprintf("stream-%d-", i))
		payloads[i] = append(payloads[i], pattern(10<<10)...)
		r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			streamOut(t, c, payloads[i])
		})
	}
	r.run(2 * time.Minute)
	total := map[string]bool{}
	for i, k := range sinks {
		if k == nil || !k.eof {
			t.Fatalf("stream %d incomplete", i)
		}
		total[string(k.got[:9])] = true
	}
	if len(total) != streams {
		t.Fatalf("streams collided: %d distinct prefixes", len(total))
	}
}

// TestServiceStopTearsDownStreams asserts the graceful service Stop: the
// dialer side of an idle established stream sees an orderly EOF (FIN), a
// mid-transfer stream is reset, and both services end with empty tables.
func TestServiceStopTearsDownStreams(t *testing.T) {
	r := newRig(t, 77, netmodel.Uniform(2*time.Millisecond))
	adv := pipe.NewPipeAdv(r.listener.ID, "stop-test")
	if _, err := r.listener.Socket.Listen(adv, func(*socket.Conn) {}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute) // index the advertisement

	var conn *socket.Conn
	r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		conn = c
	})
	r.run(time.Minute)
	if conn == nil || !conn.Established() {
		t.Fatal("stream did not establish")
	}

	// Graceful stop on the listener side: the idle peer's FIN should reach
	// the dialer as EOF, not an error.
	r.listener.Socket.Stop()
	r.run(30 * time.Second)
	if _, err := conn.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("dialer read after remote Stop = %v, want io.EOF", err)
	}
	r.dialer.Socket.Stop()
}

// silentPeerRig establishes one stream. The caller aborts the listener
// side, after which the dialer's segments go unanswered and only its
// retransmission limit ends the stream.
func silentPeerRig(t *testing.T) (*rig, *socket.Conn) {
	t.Helper()
	r := newRig(t, 78, netmodel.Uniform(2*time.Millisecond))
	adv := pipe.NewPipeAdv(r.listener.ID, "abort-test")
	if _, err := r.listener.Socket.Listen(adv, func(*socket.Conn) {}); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)

	var conn *socket.Conn
	r.dialer.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		conn = c
	})
	r.run(time.Minute)
	if conn == nil || !conn.Established() {
		t.Fatal("stream did not establish")
	}
	return r, conn
}

// TestServiceAbortIsSilent asserts the crash path sends nothing: the remote
// end only learns of the death through its retransmission limit.
func TestServiceAbortIsSilent(t *testing.T) {
	r, conn := silentPeerRig(t)
	sentBefore := r.listener.Socket.Stats.SegmentsSent
	r.listener.Socket.Abort()
	if got := r.listener.Socket.Stats.SegmentsSent; got != sentBefore {
		t.Fatalf("Abort sent %d segments, want 0", got-sentBefore)
	}
	// The dialer keeps writing into the void and eventually times out.
	if _, err := conn.Write(pattern(1024)); err != nil {
		t.Fatalf("write: %v", err)
	}
	r.run(11 * time.Minute) // past the 614.1 s retransmission schedule
	if conn.Err() != socket.ErrTimeout {
		t.Fatalf("dialer error after remote Abort = %v, want ErrTimeout", conn.Err())
	}
}

// TestFixedRTOUnchangedByEstimator pins the retransmission schedule: the
// timer arms at RTO and doubles per retry, so a sender facing a silent peer
// gives up exactly RTO·(2^(MaxRetries+1)−1) after its write — 614.1 s at
// RTO 300 ms and MaxRetries 10 — and not a nanosecond sooner.
func TestFixedRTOUnchangedByEstimator(t *testing.T) {
	r, conn := silentPeerRig(t)
	giveUp := socket.GiveUpAfter()
	if want := 614100 * time.Millisecond; giveUp != want {
		t.Fatalf("retransmission schedule sums to %v, want %v", giveUp, want)
	}
	r.listener.Socket.Abort()
	start := r.o.Sched.Now()
	if _, err := conn.Write(pattern(1024)); err != nil {
		t.Fatalf("write: %v", err)
	}
	r.o.Sched.Run(start + giveUp - time.Nanosecond)
	if err := conn.Err(); err != nil {
		t.Fatalf("dialer failed before the schedule ran out: %v", err)
	}
	r.o.Sched.Run(start + giveUp)
	if conn.Err() != socket.ErrTimeout {
		t.Fatalf("dialer error at the schedule's end = %v, want ErrTimeout", conn.Err())
	}
}

// TestReturnsToZeroState: the stream layer is small by construction. A peer
// that never streamed holds no table and is quiescent; a connection
// allocates one, and once it has drained (both closes and the TIME_WAIT
// linger) both ends are quiescent again while the listener — a registration,
// not per-connection state — survives.
func TestReturnsToZeroState(t *testing.T) {
	r := newRig(t, 31, nil)
	srv, cli := r.listener.Socket, r.dialer.Socket
	if !srv.ZeroState() || !cli.ZeroState() || !srv.Quiescent() || !cli.Quiescent() {
		t.Fatal("a service that never streamed allocated its tables or is not quiescent")
	}
	adv := pipe.NewPipeAdv(r.listener.ID, "svc")
	serverSink := &sink{}
	l, err := srv.Listen(adv, func(c *socket.Conn) {
		serverSink.attach(c)
		c.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	cli.Dial(adv.PipeID, func(c *socket.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		streamOut(t, c, pattern(8<<10))
	})
	r.run(30 * time.Second)
	if !serverSink.eof {
		t.Fatal("transfer did not complete")
	}
	r.run(5 * time.Minute) // past every linger
	if !srv.Quiescent() || !cli.Quiescent() {
		t.Fatal("connections did not drain")
	}
	if srv.Listening() != 1 {
		t.Fatal("the listener did not survive the connection")
	}
	l.Close()
	if srv.Listening() != 0 {
		t.Fatal("a closed listener is still listening")
	}
}
