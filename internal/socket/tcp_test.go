package socket_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"jxta/internal/env"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/pipe"
	"jxta/internal/socket"
	"jxta/internal/transport"
)

// livePeer bundles a real-TCP peer, mirroring internal/node's integration
// test rig: wall-clock env, TCP transport, full protocol stack.
type livePeer struct {
	n  *node.Node
	e  *env.Real
	tr *transport.TCP
}

func newLivePeer(t *testing.T, name string, role node.Role, seeds []peerview.Seed, rngSeed int64) *livePeer {
	t.Helper()
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	e := env.NewReal(name, rngSeed)
	var n *node.Node
	e.Locked(func() {
		n = node.New(e, tr, node.Config{Name: name, Role: role, Seeds: seeds})
		n.Start()
	})
	t.Cleanup(func() { e.Locked(func() { n.Stop() }) })
	return &livePeer{n: n, e: e, tr: tr}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSocketOverTCP runs the full stream layer — pipe advertisement
// resolution through the LC-DHT, handshake, windowed bulk transfer,
// orderly teardown — over real localhost sockets, moving ≥ 1 MiB.
func TestSocketOverTCP(t *testing.T) {
	rdv := newLivePeer(t, "rdv", node.Rendezvous, nil, 1)
	seed := peerview.Seed{ID: rdv.n.ID, Addr: rdv.tr.Addr()}
	srv := newLivePeer(t, "server", node.Edge, []peerview.Seed{seed}, 2)
	cli := newLivePeer(t, "client", node.Edge, []peerview.Seed{seed}, 3)

	waitFor(t, "leases", 10*time.Second, func() bool {
		ok1, ok2 := false, false
		srv.e.Locked(func() { _, ok1 = srv.n.Rendezvous.ConnectedRdv() })
		cli.e.Locked(func() { _, ok2 = cli.n.Rendezvous.ConnectedRdv() })
		return ok1 && ok2
	})

	adv := pipe.NewPipeAdv(srv.n.ID, "bulk")
	var got []byte
	eof := false
	srv.e.Locked(func() {
		_, err := srv.n.Socket.Listen(adv, func(c *socket.Conn) {
			buf := make([]byte, 64<<10)
			drain := func() {
				for {
					n, err := c.Read(buf)
					got = append(got, buf[:n]...)
					if err == io.EOF {
						eof = true
						return
					}
					if err != nil || n == 0 {
						return
					}
				}
			}
			c.OnReadable(drain)
		})
		if err != nil {
			t.Errorf("listen: %v", err)
		}
	})

	// Let the SRDI push land before resolving.
	time.Sleep(300 * time.Millisecond)

	connCh := make(chan *socket.Conn, 1)
	errCh := make(chan error, 1)
	cli.e.Locked(func() {
		cli.n.Socket.Dial(adv.PipeID, func(c *socket.Conn, err error) {
			if err != nil {
				errCh <- err
				return
			}
			connCh <- c
		})
	})
	var conn *socket.Conn
	select {
	case conn = <-connCh:
	case err := <-errCh:
		t.Fatalf("dial: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("dial over TCP never completed")
	}

	payload := pattern(1 << 20) // 1 MiB
	remaining := payload
	deadline := time.Now().Add(30 * time.Second)
	for len(remaining) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("send stalled with %d bytes left", len(remaining))
		}
		wrote := 0
		var werr error
		cli.e.Locked(func() { wrote, werr = conn.Write(remaining) })
		if werr != nil {
			t.Fatalf("write: %v", werr)
		}
		remaining = remaining[wrote:]
		if wrote == 0 {
			time.Sleep(5 * time.Millisecond) // window full; acks drain it
		}
	}
	cli.e.Locked(func() { conn.Close() })

	waitFor(t, "transfer completion", 30*time.Second, func() bool {
		done := false
		srv.e.Locked(func() { done = eof })
		return done
	})
	srv.e.Locked(func() {
		if !bytes.Equal(got, payload) {
			t.Errorf("TCP transfer corrupted: got %d bytes, want %d", len(got), len(payload))
		}
	})
	// BytesSent counts bytes acknowledged, and the server sees EOF while the
	// last acknowledgements may still be on their way back: wait for them.
	var sent uint64
	waitFor(t, "every byte acknowledged", 10*time.Second, func() bool {
		cli.e.Locked(func() { sent = conn.BytesSent })
		return sent >= uint64(len(payload))
	})
	if sent != uint64(len(payload)) {
		t.Errorf("BytesSent=%d want %d", sent, len(payload))
	}
}
