package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"jxta/internal/message"
)

// maxFrame bounds a single TCP frame (16 MiB), mirroring the message
// decoder's own limits.
const maxFrame = 1 << 24

// frameChunk is the most a frameReader allocates before any payload byte of
// a frame has arrived.
const frameChunk = 64 << 10

// frameBuffer is each connection's read buffer. A frame that fits it — the
// protocols' messages are a kilobyte or two — is read with its header in one
// system call and handed to the decoder in place.
const frameBuffer = 4 << 10

// helloName identifies the handshake element carrying the dialer's address.
const (
	helloNS   = "transport"
	helloName = "Hello"
)

// helloTimeout is how long an accepted connection has to deliver its hello
// frame (the endpoint's Hello exchange allows the same). Only that first
// frame has a deadline: an established connection legitimately idles.
const helloTimeout = 10 * time.Second

// writeTimeout bounds one frame's Write: Send runs under the sending node's
// lock, and a peer that stops reading would otherwise hold it for good. It
// bounds the rest of a frame's read too, once its first byte has arrived.
const writeTimeout = 10 * time.Second

// TCP is a real wire transport: each endpoint runs a listener; connections
// are dialed lazily, cached, and carry length-prefixed frames of
// message.Marshal bytes. The first frame on a dialed connection is a hello
// announcing the dialer's listen address, so the receiver can attribute
// inbound traffic to a peer address rather than an ephemeral port.
type TCP struct {
	listener net.Listener
	addr     Addr

	mu      sync.Mutex
	handler Handler
	// conns caches one connection per peer address for Send.
	conns map[Addr]net.Conn
	// open holds every connection a goroutine of this transport may be
	// blocked reading, cached in conns or not (an accepted connection that
	// has not said hello yet, the inbound half of a simultaneous dial), so
	// Close can unblock them all.
	open   map[net.Conn]struct{}
	closed bool
	// helloTimeout and writeTimeout are the constants; fields so a test can
	// shorten them.
	helloTimeout time.Duration
	writeTimeout time.Duration
	wg           sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// ListenTCP binds a listener on the given host (host may be "127.0.0.1:0"
// for an ephemeral test port).
func ListenTCP(hostport string) (*TCP, error) {
	l, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		listener: l,
		addr:     Addr("tcp://" + l.Addr().String()),
		conns:    make(map[Addr]net.Conn),
		open:     make(map[net.Conn]struct{}),

		helloTimeout: helloTimeout,
		writeTimeout: writeTimeout,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCP) Addr() Addr { return t.addr }

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Close implements Transport: stops the listener, closes every open
// connection and waits for reader goroutines to drain.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.listener.Close()
	for c := range t.open {
		c.Close()
	}
	t.conns = map[Addr]net.Conn{}
	t.open = map[net.Conn]struct{}{}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// Send implements Transport. A frame the peer has not taken within the
// write timeout fails Send and drops the connection.
func (t *TCP) Send(to Addr, msg *message.Message) error {
	conn, err := t.conn(to)
	if err != nil {
		return err
	}
	buf := message.GetBuffer()
	frame := appendFrame(*buf, msg)
	// One Write per frame: Send runs concurrently on every read loop and the
	// application, and only a single Write is atomic against the others.
	_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout)) // a connection that cannot take one fails its Write
	_, err = conn.Write(frame)
	*buf = frame // keep the grown backing array for the pool
	message.PutBuffer(buf)
	if err != nil {
		// Connection went bad or stalled: drop it so the next send redials.
		t.dropConn(to, conn)
		return err
	}
	return nil
}

// conn returns a cached connection to the peer, dialing and handshaking if
// needed.
func (t *TCP) conn(to Addr) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	hostport, ok := stripScheme(to)
	if !ok {
		return nil, fmt.Errorf("%w: %s is not a tcp address", ErrUnknownPeer, to)
	}
	c, err := net.Dial("tcp", hostport)
	if err != nil {
		return nil, err
	}
	var hello message.Message
	hello.AddString(helloNS, helloName, string(t.addr))
	if _, err := c.Write(appendFrame(nil, &hello)); err != nil {
		c.Close()
		return nil, err
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Lost a dial race; keep the existing connection.
		t.mu.Unlock()
		c.Close()
		return existing, nil
	}
	t.conns[to] = c
	t.open[c] = struct{}{}
	t.wg.Add(1)
	fr := newFrameReader(c)
	fr.conn, fr.timeout = c, t.writeTimeout
	go t.readLoop(to, c, fr)
	t.mu.Unlock()
	return c, nil
}

// dropConn closes c and forgets it; peer is the address it is cached under,
// "" if it never got that far.
func (t *TCP) dropConn(peer Addr, c net.Conn) {
	t.mu.Lock()
	if cur, ok := t.conns[peer]; ok && cur == c {
		delete(t.conns, peer)
	}
	delete(t.open, c)
	t.mu.Unlock()
	c.Close()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.open[c] = struct{}{}
		t.wg.Add(1)
		hello, frame := t.helloTimeout, t.writeTimeout
		t.mu.Unlock()
		go t.handshakeInbound(c, hello, frame)
	}
}

// handshakeInbound reads the hello frame from a dialer, registers the
// connection under the announced address, and enters the read loop. A
// dialer that has not said hello within timeout is dropped: without the
// deadline a peer that connects and stalls pins this goroutine and its read
// buffer until Close. Every later frame has frameTimeout to arrive whole.
func (t *TCP) handshakeInbound(c net.Conn, timeout, frameTimeout time.Duration) {
	var peer Addr
	fr := newFrameReader(c)
	_ = c.SetReadDeadline(time.Now().Add(timeout)) // a connection that cannot take one fails its read
	if frame, err := fr.next(); err == nil {
		var hello message.Message
		if hello.UnmarshalAlias(frame) == nil {
			peer = Addr(hello.GetString(helloNS, helloName)) // a copy: the frame is the reader's
		}
	}
	_ = c.SetReadDeadline(time.Time{})
	fr.conn, fr.timeout = c, frameTimeout
	if peer == "" {
		t.dropConn("", c)
		t.wg.Done() // readLoop's job for a connection that gets that far
		return
	}
	t.mu.Lock()
	// A connection Close already closed fails its first read in readLoop.
	if _, dup := t.conns[peer]; !dup && !t.closed {
		t.conns[peer] = c
	}
	t.mu.Unlock()
	t.readLoop(peer, c, fr)
}

// readLoop delivers every frame fr yields; fr reads from c. Each frame is
// decoded in place into the connection's one message, which the handler has
// on loan (Handler): the next frame overwrites both.
func (t *TCP) readLoop(peer Addr, c net.Conn, fr *frameReader) {
	defer t.wg.Done()
	defer t.dropConn(peer, c)
	var msg message.Message
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		if err := msg.UnmarshalAlias(frame); err != nil {
			return // corrupt stream: drop the connection
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			h(peer, &msg)
		}
	}
}

// appendFrame appends msg as one wire frame, a 4-byte big-endian length and
// then the marshalled message, so the caller can emit it in a single Write.
func appendFrame(dst []byte, msg *message.Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = msg.AppendMarshal(dst)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// frameReader splits one connection's byte stream into frames.
type frameReader struct {
	r *bufio.Reader
	// held is how much of r's buffer the frame last returned occupies; the
	// next call gives it back.
	held int
	// conn, when set, gets a read deadline of timeout while a frame that has
	// begun to arrive is read: a peer whose header promises bytes it never
	// sends is dropped instead of pinning the reader. Between frames a
	// connection idles with no deadline.
	conn    net.Conn
	timeout time.Duration
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, frameBuffer)}
}

// next returns the payload of the next frame. The slice is valid until the
// following call: a frame that fits the read buffer is returned in place,
// header and payload having arrived in one read, and costs no allocation;
// the read loop decodes it in place.
func (f *frameReader) next() ([]byte, error) {
	f.r.Discard(f.held)
	f.held = 0
	if _, err := f.r.Peek(1); err != nil {
		return nil, err
	}
	if f.conn != nil && !f.buffered() {
		_ = f.conn.SetReadDeadline(time.Now().Add(f.timeout)) // a connection that cannot take one fails its read
		defer f.conn.SetReadDeadline(time.Time{})
	}
	hdr, err := f.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if 4+n <= f.r.Size() {
		frame, err := f.r.Peek(4 + n)
		if err != nil {
			return nil, err
		}
		f.held = 4 + n
		return frame[4:], nil
	}
	f.r.Discard(4)
	// A larger frame gets memory of its own. The length is the peer's
	// claim, not yet its bytes: allocate one chunk up front and grow only
	// as payload actually arrives (doubling, so the buffer stays within
	// twice what was received). A peer that claims maxFrame and stalls pins
	// frameChunk, not 16 MiB; frames up to frameChunk are one allocation.
	buf := make([]byte, min(n, frameChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(f.r, buf[have:]); err != nil {
			return nil, err
		}
		if have = len(buf); have == n {
			return buf, nil
		}
		// Not append: it rounds a large slice's capacity up by a quarter,
		// which is memory held for bytes the peer has only promised.
		grown := make([]byte, have+min(n-have, have))
		copy(grown, buf)
		buf = grown
	}
}

// buffered reports whether the read buffer holds the whole next frame,
// header and payload.
func (f *frameReader) buffered() bool {
	have := f.r.Buffered()
	if have < 4 {
		return false
	}
	hdr, _ := f.r.Peek(4)
	return have-4 >= int(binary.BigEndian.Uint32(hdr))
}

func stripScheme(a Addr) (string, bool) {
	const prefix = "tcp://"
	s := string(a)
	if len(s) <= len(prefix) || s[:len(prefix)] != prefix {
		return "", false
	}
	return s[len(prefix):], true
}
