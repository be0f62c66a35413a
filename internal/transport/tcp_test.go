package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"jxta/internal/message"
)

func listenPair(t *testing.T) (a, b *TCP) {
	t.Helper()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err = ListenTCP("127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b
}

// TestTCPConcurrentSendersFramesIntact hammers one connection from 8
// goroutines. A frame written as two Writes (header, then payload) lets two
// senders interleave "hdrA hdrB payloadA payloadB"; the receiver then sees a
// corrupt stream and drops the connection, losing messages. Every frame must
// arrive whole, and each sender's frames in the order it sent them.
func TestTCPConcurrentSendersFramesIntact(t *testing.T) {
	a, b := listenPair(t)
	defer a.Close()
	defer b.Close()

	const senders, perSender = 8, 400
	body := func(g, i int) []byte {
		// Sizes from a few bytes to several KB, so large frames need more
		// than one write(2) and small ones race in between.
		return bytes.Repeat([]byte{byte(g*31 + i)}, 1+(g*977+i*131)%6000)
	}
	var mu sync.Mutex
	next := make([]int, senders)
	total := 0
	done := make(chan struct{})
	b.SetHandler(func(_ Addr, m *message.Message) {
		hdr, _ := m.Get("t", "hdr")
		if len(hdr) != 8 {
			return // the warm-up message
		}
		g, i := int(binary.BigEndian.Uint32(hdr)), int(binary.BigEndian.Uint32(hdr[4:]))
		data, _ := m.Get("t", "body")
		mu.Lock()
		defer mu.Unlock()
		if g >= senders || i != next[g] {
			t.Errorf("sender %d: got frame %d, want %d", g, i, next[g])
			return
		}
		if !bytes.Equal(data, body(g, i)) {
			t.Errorf("sender %d frame %d: body corrupted (%d bytes)", g, i, len(data))
		}
		next[g]++
		if total++; total == senders*perSender {
			close(done)
		}
	})
	// Establish the connection first so every goroutine shares it.
	if err := a.Send(b.Addr(), msgOf("warm-up")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				hdr := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(g)), uint32(i))
				m := message.New().Add("t", "hdr", hdr).Add("t", "body", body(g, i))
				if err := a.Send(b.Addr(), m); err != nil {
					t.Errorf("sender %d frame %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d frames arrived", total, senders*perSender)
	}
}

// openConns reports how many connections the transport tracks and how many
// of them it caches for sending.
func openConns(t *TCP) (open, cached int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open), len(t.conns)
}

// TestTCPCloseAfterSimultaneousDial: when two transports dial each other at
// the same moment, each ends up with the connection it dialed in its cache
// and the one it accepted outside it (the duplicate check keeps the first).
// Close must close that second connection too: it used to leave its read
// loop blocked until the *other* side closed, so closing one transport of a
// pair on its own hung.
func TestTCPCloseAfterSimultaneousDial(t *testing.T) {
	for _, first := range []string{"a", "b"} {
		t.Run("close-"+first+"-first", func(t *testing.T) {
			a, b := listenPair(t)
			got := make(chan struct{}, 2)
			h := func(Addr, *message.Message) { got <- struct{}{} }
			a.SetHandler(h)
			b.SetHandler(h)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, leg := range [][2]*TCP{{a, b}, {b, a}} {
				wg.Add(1)
				go func(from, to *TCP) {
					defer wg.Done()
					<-start
					if err := from.Send(to.Addr(), msgOf("hi")); err != nil {
						t.Errorf("send: %v", err)
					}
				}(leg[0], leg[1])
			}
			close(start)
			wg.Wait()
			for i := 0; i < 2; i++ {
				select {
				case <-got:
				case <-time.After(5 * time.Second):
					t.Fatal("message lost")
				}
			}
			x, y := a, b // x closes first, while y stays open
			if first == "b" {
				x, y = b, a
			}
			if open, cached := openConns(x); open <= cached {
				// The dials did not overlap this time (one hello landed before
				// the other side dialed). Make the duplicate by hand: a second
				// connection announcing y's address, as y's own dial would.
				dup, err := net.Dial("tcp", string(x.Addr())[len("tcp://"):])
				if err != nil {
					t.Fatal(err)
				}
				defer dup.Close()
				hello := message.New().AddString(helloNS, helloName, string(y.Addr()))
				// A message behind the hello: its delivery proves x has taken
				// the connection past the handshake and into a read loop.
				if _, err := dup.Write(appendFrame(appendFrame(nil, hello), msgOf("dup"))); err != nil {
					t.Fatal(err)
				}
				select {
				case <-got:
				case <-time.After(5 * time.Second):
					t.Fatal("duplicate connection never read")
				}
				if open, cached := openConns(x); open <= cached {
					t.Fatalf("duplicate not tracked: %d open, %d cached", open, cached)
				}
			}
			for _, tr := range []*TCP{x, y} {
				closed := make(chan struct{})
				go func() { tr.Close(); close(closed) }()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close blocked on a connection the other side still holds")
				}
			}
		})
	}
}

// TestInboundHandshakeDeadline: a peer that connects, sends two bytes and
// stalls used to pin a goroutine and a read buffer until Close. Only the
// hello frame has a deadline — an established connection idles for longer
// than it and still delivers — and after Close no goroutine of the transport
// is left, the stalled dialer's included.
func TestInboundHandshakeDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	const deadline = 50 * time.Millisecond
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHelloTimeout(deadline)
	got := make(chan string, 2)
	srv.SetHandler(func(_ Addr, m *message.Message) { got <- m.GetString("t", "body") })

	staller, err := net.Dial("tcp", string(srv.Addr())[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer staller.Close()
	if _, err := staller.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	// The server hangs up: our read ends without a byte, well inside 5 s.
	staller.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := staller.Read(make([]byte, 1)); n != 0 || err == nil || isTimeout(err) {
		t.Fatalf("a dialer that never said hello read %d bytes, err %v; want the connection closed", n, err)
	}
	for wait := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if open, _ := openConns(srv); open == 0 {
			break
		}
		if time.Now().After(wait) {
			t.Fatal("the stalled connection is still tracked")
		}
	}

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"before idling", "after idling"} {
		if err := cli.Send(srv.Addr(), msgOf(body)); err != nil {
			t.Fatal(err)
		}
		select {
		case have := <-got:
			if have != body {
				t.Fatalf("received %q, want %q", have, body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never arrived", body)
		}
		time.Sleep(3 * deadline) // idle past the hello deadline: it must be off by now
	}
	if open, cached := openConns(srv); open != 1 || cached != 1 {
		t.Fatalf("server tracks %d connections (%d cached), want the one that idled", open, cached)
	}

	cli.Close()
	srv.Close()
	for wait := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before ListenTCP:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestSendWriteDeadline: a peer that accepts and never reads fills the
// socket buffers, and the next Write blocks. Send runs under the sending
// node's lock, so it must give up within the write timeout, return the
// error and drop the connection, instead of holding the node forever.
func TestSendWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c // held open, never read
		}
	}()
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const deadline = 100 * time.Millisecond
	tr.SetWriteTimeout(deadline)
	to := Addr("tcp://" + ln.Addr().String())
	big := message.New().Add("t", "body", make([]byte, 1<<20))
	for sent := 0; ; sent++ {
		if sent == 256 {
			t.Fatal("256 MiB went to a peer that never reads, and no Send failed")
		}
		start := time.Now()
		err := tr.Send(to, big)
		if took := time.Since(start); took > deadline+2*time.Second {
			t.Fatalf("Send %d blocked for %v, write timeout %v", sent, took, deadline)
		}
		if err != nil {
			if !isTimeout(err) {
				t.Fatalf("Send %d failed with %v, want a timeout", sent, err)
			}
			break
		}
	}
	if open, cached := openConns(tr); open != 0 || cached != 0 {
		t.Fatalf("after the timed-out Send the transport tracks %d connections (%d cached), want none", open, cached)
	}
	if c := <-accepted; c != nil {
		c.Close()
	}
}

// TestPartialFrameDeadline: a peer whose frame header claims 100 bytes and
// which then sends 10 used to pin the reader for as long as the connection
// stayed open. Once a frame has begun, the rest must arrive within the write
// timeout or the connection is dropped — on an accepted connection and on a
// dialed one. Between frames a connection idles with no deadline.
func TestPartialFrameDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	partial := append(binary.BigEndian.AppendUint32(nil, 100), "ten bytes."...)
	// droppedWithin fails the test unless the transport hangs up on c well
	// inside 5 s.
	droppedWithin := func(c net.Conn) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); isTimeout(err) {
			t.Fatal("a peer that sent 10 of 100 promised bytes is still connected after 5 s")
		}
	}

	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetWriteTimeout(deadline)
	got := make(chan string, 1)
	srv.SetHandler(func(_ Addr, m *message.Message) { got <- m.GetString("t", "body") })
	in, err := net.Dial("tcp", string(srv.Addr())[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	hello := message.New().AddString(helloNS, helloName, "tcp://127.0.0.1:1")
	if _, err := in.Write(appendFrame(nil, hello)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * deadline) // idle between frames: no deadline applies
	if _, err := in.Write(appendFrame(nil, msgOf("after idling"))); err != nil {
		t.Fatal(err)
	}
	select {
	case have := <-got:
		if have != "after idling" {
			t.Fatalf("received %q", have)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a connection that idled between frames was dropped")
	}
	if _, err := in.Write(partial); err != nil {
		t.Fatal(err)
	}
	droppedWithin(in)

	// The dialed side: the peer takes the hello and answers with a partial
	// frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		if _, err := newFrameReader(c).next(); err == nil {
			c.Write(partial)
		}
		accepted <- c
	}()
	if err := srv.Send(Addr("tcp://"+ln.Addr().String()), msgOf("hi")); err != nil {
		t.Fatal(err)
	}
	out := <-accepted
	if out == nil {
		t.Fatal("accept failed")
	}
	defer out.Close()
	droppedWithin(out)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// stallingReader serves data and then stalls, recording the largest buffer
// the caller ever offered it: what the caller holds for this peer's bytes.
type stallingReader struct {
	data []byte
	off  int
	held int
}

func (r *stallingReader) Read(p []byte) (int, error) {
	r.held = max(r.held, len(p))
	if r.off == len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// frameWire is n payload bytes behind their length prefix.
func frameWire(n int) []byte {
	wire := binary.BigEndian.AppendUint32(nil, uint32(n))
	for i := 0; i < n; i++ {
		wire = append(wire, byte(i*31))
	}
	return wire
}

// TestFrameReaderAllocatesAsBytesArrive pins ROADMAP item 3(c): the length
// prefix is a claim by the peer, and the reader must not back it with memory
// before the bytes arrive. A peer that claims maxFrame, sends 10 bytes and
// stalls may pin one chunk, not 16 MiB.
func TestFrameReaderAllocatesAsBytesArrive(t *testing.T) {
	claim := make([]byte, 4, 14)
	binary.BigEndian.PutUint32(claim, maxFrame)
	r := &stallingReader{data: append(claim, "ten bytes."...)}
	if _, err := newFrameReader(r).next(); err == nil {
		t.Fatal("next returned a frame the peer never finished")
	}
	if r.held+frameBuffer >= 128<<10 {
		t.Fatalf("reader holds %d bytes for a peer that sent 10", r.held+frameBuffer)
	}

	// One stream of frames on either side of the read buffer and of the
	// chunk size: each arrives whole, whether it was returned in place or
	// in memory of its own, and stays intact until the next call.
	sizes := []int{0, 1, frameBuffer - 5, frameBuffer - 4, frameBuffer - 3, 1000,
		frameChunk - 1, frameChunk, frameChunk + 1, 2, 5*frameChunk + 7, 1}
	var stream []byte
	for _, n := range sizes {
		stream = append(stream, frameWire(n)...)
	}
	fr := newFrameReader(bytes.NewReader(stream))
	for _, n := range sizes {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame of %d bytes: %v", n, err)
		}
		if !bytes.Equal(got, frameWire(n)[4:]) {
			t.Fatalf("frame of %d bytes arrived corrupted (len %d)", n, len(got))
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// endlessReader serves the same bytes over and over.
type endlessReader struct {
	data []byte
	off  int
}

func (r *endlessReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestFrameReaderSteadyStateAllocations: a frame that fits the read buffer
// costs no allocation, a larger one up to frameChunk exactly one.
func TestFrameReaderSteadyStateAllocations(t *testing.T) {
	for _, tc := range []struct{ n, allocs int }{{1000, 0}, {frameBuffer - 4, 0}, {frameBuffer - 3, 1}, {frameChunk, 1}} {
		fr := newFrameReader(&endlessReader{data: frameWire(tc.n)})
		if a := testing.AllocsPerRun(100, func() {
			if frame, err := fr.next(); err != nil || len(frame) != tc.n {
				t.Fatalf("frame of %d bytes: len %d, %v", tc.n, len(frame), err)
			}
		}); int(a) != tc.allocs {
			t.Fatalf("frame of %d bytes costs %.0f allocations, want %d", tc.n, a, tc.allocs)
		}
	}
}
