// Package socket implements JXTA sockets: reliable, bidirectional,
// flow-controlled byte streams bound over pipe advertisements — the data
// plane the JXTA stack layers above its fire-and-forget pipes, and the
// layer the research group's companion benchmarks measure (throughput vs.
// message size, round-trip latency).
//
// The protocol is a compact TCP analogue spoken in JXTA messages over the
// endpoint service: a SYN/SYN-ACK/ACK handshake binds a connection to a
// pipe advertisement, data travels in sequence-numbered segments covered
// by cumulative ACKs, a sliding send window (bounded by both the local
// window and the receiver's advertised free buffer) provides flow control,
// and a per-connection retransmission timer with exponential backoff
// recovers losses. All timers run through env.Env, so the same
// code is deterministic under the simulation scheduler and wall-clock
// driven over real TCP transports.
//
// The API is io.ReadWriter-shaped but non-blocking, matching the
// single-threaded env callback model: Write copies as much as fits into
// the send buffer and returns the count; Read drains whatever has arrived
// in order. OnReadable/OnWritable callbacks resume pumping when data or
// window space appears.
package socket

import (
	"errors"
	"io"
	"sort"
	"strconv"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/pipe"
)

// ServiceName is the endpoint service socket segments travel on.
const ServiceName = "socket.seg"

// Wire elements, namespace "sock".
const (
	ns       = "sock"
	elemType = "Type" // syn | synack | ack | data | fin | rst
	elemConn = "Conn" // connection ID, assigned by the dialer
	elemInit = "Init" // "1" when sent by the dialer side (demux)
	elemPipe = "Pipe" // pipe ID (syn only)
	elemSeq  = "Seq"  // first byte offset of the segment
	elemAck  = "Ack"  // cumulative ack: next expected byte
	elemWnd  = "Wnd"  // advertised free receive buffer (bytes)
	elemData = "Data" // payload
	elemFin  = "Fin"  // "1" marks the segment as carrying FIN
)

// Segment type tags.
const (
	typeSyn    = "syn"
	typeSynAck = "synack"
	typeAck    = "ack"
	typeData   = "data"
	typeRst    = "rst"
)

// Stream-layer constants.
const (
	// mss is the maximum segment payload size.
	mss = 16 << 10
	// windowBytes bounds both the send buffer / in-flight data and the
	// receive buffer whose free space is advertised to the peer; it caps WAN
	// throughput at roughly window/RTT (~21 MB/s on the Grid'5000 model).
	windowBytes = 256 << 10
	// rto is the initial retransmission timeout; it doubles per retry.
	rto = 300 * time.Millisecond
	// maxRetries bounds consecutive retransmissions of one segment before
	// the connection is reset.
	maxRetries = 10
	// handshakeTimeout bounds Dial from SYN to establishment.
	handshakeTimeout = 30 * time.Second
)

// Errors.
var (
	ErrClosed       = errors.New("socket: connection closed")
	ErrReset        = errors.New("socket: connection reset by peer")
	ErrTimeout      = errors.New("socket: retransmission limit exceeded")
	ErrDialTimeout  = errors.New("socket: dial timed out")
	ErrAlreadyBound = errors.New("socket: listener already bound to pipe")
)

// Stats counts stream-layer activity on one peer.
type Stats struct {
	ConnsDialed    uint64
	ConnsAccepted  uint64
	SegmentsSent   uint64
	SegmentsRetx   uint64 // retransmitted segments
	BytesSent      uint64 // application payload bytes handed to the network
	BytesDelivered uint64 // in-order bytes made readable
	SegmentsDup    uint64 // received segments at or below the ack point
	WindowStalls   uint64 // times a sender stalled on a closed flow window
}

// connKey identifies a connection at one endpoint. The dialer assigns the
// connection ID; initiated distinguishes the two directions so the same
// (peer, id) pair can exist once per role.
type connKey struct {
	peer      ids.ID
	id        uint64
	initiated bool // true when this side dialed
}

// Service is one peer's stream layer.
type Service struct {
	env   env.Env
	ep    *endpoint.Endpoint
	pipes *pipe.Service

	// listeners and conns are nil until first written (reads of a nil map
	// are already correct), so a peer that never streams allocates neither.
	listeners map[ids.ID]*Listener
	conns     map[connKey]*Conn
	nextConn  uint64

	Stats Stats
}

// New wires the stream layer into a peer's endpoint and pipe services.
func New(e env.Env, ep *endpoint.Endpoint, pipes *pipe.Service) *Service {
	s := &Service{env: e, ep: ep, pipes: pipes}
	ep.Register(ServiceName, s.receive)
	return s
}

// Stop tears the stream layer down gracefully: listeners unbind (their pipe
// advertisements stop answering binds), idle established connections send a
// best-effort FIN, connections with data still in flight are reset, and
// every per-connection timer — retransmission, dial deadline, TIME_WAIT
// linger — is canceled. Applications observe ErrClosed. Connections are
// visited in sorted key order so the segments a teardown emits are
// deterministic under the simulation scheduler.
func (s *Service) Stop() { s.shutdown(true) }

// Abort is the crash-path Stop: identical teardown, but no FIN or RST
// leaves the peer — remote ends discover the death by retransmission
// timeout, as they would a real process crash.
func (s *Service) Abort() { s.shutdown(false) }

func (s *Service) shutdown(announce bool) {
	for _, l := range s.sortedListeners() {
		l.Close()
	}
	for _, key := range s.sortedConnKeys() {
		c, ok := s.conns[key]
		if !ok {
			continue // removed by an earlier teardown callback
		}
		s.teardownConn(c, announce)
	}
}

// Reset completes a cold restart. Stop already emptied the tables; the
// connection ID counter keeps increasing so segments from pre-restart
// connections can never alias new ones.
func (s *Service) Reset() {
	s.listeners = nil
	s.conns = nil
}

// Quiescent reports whether the service is idle: no connection in any
// state (including TIME_WAIT) occupies the table.
func (s *Service) Quiescent() bool { return len(s.conns) == 0 }

// addConn enters c into the connection table.
func (s *Service) addConn(c *Conn) {
	if s.conns == nil {
		s.conns = make(map[connKey]*Conn)
	}
	s.conns[c.key] = c
}

// sortedListeners returns the listeners in ascending pipe-ID order.
func (s *Service) sortedListeners() []*Listener {
	out := make([]*Listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Adv.PipeID.Less(out[j].Adv.PipeID)
	})
	return out
}

// sortedConnKeys returns the connection keys in a total, deterministic
// order: (peer ID, connection ID, role).
func (s *Service) sortedConnKeys() []connKey {
	keys := make([]connKey, 0, len(s.conns))
	for k := range s.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if !a.peer.Equal(b.peer) {
			return a.peer.Less(b.peer)
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return !a.initiated && b.initiated
	})
	return keys
}

// teardownConn force-closes one connection during service shutdown.
func (s *Service) teardownConn(c *Conn, announce bool) {
	if c.state == stateClosed {
		// Already failed or fully torn down (TIME_WAIT): just reclaim the
		// linger timer and the table slot.
		c.stopTimers()
		if cur, ok := s.conns[c.key]; ok && cur == c {
			delete(s.conns, c.key)
			c.ooo = nil
		}
		return
	}
	if announce {
		switch {
		case c.state == stateEstablished && !c.sentFin &&
			len(c.sendBuf) == 0 && len(c.retxQ) == 0:
			// Nothing outstanding: a bare best-effort FIN lets the peer see
			// an orderly EOF instead of a reset. No retransmission — this
			// side is going away.
			c.sentFin = true
			c.sendSegment(segment{seq: c.sndNxt, fin: true})
			c.sndNxt++
		default:
			c.sendRst()
		}
	}
	c.fail(ErrClosed)
}

// Listener accepts inbound connections on a pipe advertisement.
type Listener struct {
	svc    *Service
	Adv    *advertisement.Pipe
	in     *pipe.InputPipe
	accept func(*Conn)
	// Accepted counts established inbound connections.
	Accepted uint64
}

// Listen binds a listener to the pipe described by adv and publishes the
// advertisement so dialers can resolve this peer. accept fires once per
// established inbound connection.
func (s *Service) Listen(adv *advertisement.Pipe, accept func(*Conn)) (*Listener, error) {
	if _, dup := s.listeners[adv.PipeID]; dup {
		return nil, ErrAlreadyBound
	}
	// Claiming the pipe publishes the advertisement and reserves the pipe
	// on this peer; stream traffic itself travels on ServiceName.
	in, err := s.pipes.Bind(adv, nil)
	if err != nil {
		return nil, err
	}
	l := &Listener{svc: s, Adv: adv, in: in, accept: accept}
	if s.listeners == nil {
		s.listeners = make(map[ids.ID]*Listener)
	}
	s.listeners[adv.PipeID] = l
	return l, nil
}

// Close unbinds the listener. Established connections are unaffected;
// handshakes still in flight are orphaned and reset when they would have
// been accepted (the dialer sees ErrReset rather than a stream nobody
// serves).
func (l *Listener) Close() {
	delete(l.svc.listeners, l.Adv.PipeID)
	l.in.Close()
	for _, c := range l.svc.conns {
		if c.listener == l {
			c.listener = nil
		}
	}
}

// Dial resolves the pipe's binder through the discovery protocol, performs
// the connection handshake and hands the established connection to cb.
// cb fires exactly once, with err != nil on resolution or handshake failure.
func (s *Service) Dial(pipeID ids.ID, cb func(*Conn, error)) {
	s.pipes.Connect(pipeID, func(out *pipe.OutputPipe, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		s.DialPeer(out.Binder, pipeID, cb)
	})
}

// DialPeer handshakes directly with a known binder peer (a route to it must
// exist or be installable by the endpoint).
func (s *Service) DialPeer(binder, pipeID ids.ID, cb func(*Conn, error)) {
	s.nextConn++
	s.Stats.ConnsDialed++
	c := s.newConn(connKey{peer: binder, id: s.nextConn, initiated: true})
	c.pipeID = pipeID
	c.state = stateSynSent
	c.onDialed = cb
	c.dialDeadline = s.env.After(handshakeTimeout, func() {
		if c.state == stateSynSent {
			c.fail(ErrDialTimeout)
		}
	})
	s.addConn(c)
	c.sendSyn()
	c.armRetx()
}

// --- Connection ---

// Connection states.
type connState int

const (
	stateSynSent connState = iota
	stateSynReceived
	stateEstablished
	stateClosed // failed or fully torn down
)

// segment is one in-flight (unacked) unit of the retransmission queue.
type segment struct {
	seq  uint64
	data []byte
	fin  bool
}

// Conn is one end of an established (or establishing) stream.
type Conn struct {
	svc   *Service
	key   connKey
	state connState

	pipeID ids.ID

	// Send side.
	sendBuf  []byte    // application bytes not yet segmented
	retxQ    []segment // sent, unacked segments in seq order
	sndUna   uint64    // oldest unacked byte
	sndNxt   uint64    // next byte to send
	peerWnd  int       // receiver's advertised free buffer
	retries  int
	retxTmr  env.Timer
	sentFin  bool // FIN queued or sent
	finAcked bool

	// Receive side.
	recvBuf   []byte            // in-order bytes awaiting Read
	ooo       map[uint64][]byte // out-of-order segments by seq; nil until the first
	rcvNxt    uint64            // next expected byte
	remoteFin uint64            // seq of the peer's FIN; 0 = none (finSeen)
	finSeen   bool
	// freedSinceAck accumulates receive-buffer space freed by Read since
	// the last advertised window, so window updates fire however small the
	// individual Read calls are.
	freedSinceAck int

	// Lifecycle.
	closed bool // local Close called
	err    error

	onDialed     func(*Conn, error)
	dialDeadline env.Timer
	lingerTmr    env.Timer // TIME_WAIT reclamation (maybeTeardown)
	listener     *Listener // pending accept (SYN-RECEIVED only)
	onReadable   func()
	onWritable   func()

	// Stream statistics.
	BytesSent uint64 // application bytes acked by the peer
	BytesRecv uint64 // application bytes delivered in order
	Retx      uint64 // retransmitted segments
}

func (s *Service) newConn(key connKey) *Conn {
	return &Conn{
		svc:     s,
		key:     key,
		peerWnd: windowBytes, // until the first advertisement arrives
	}
}

// RemotePeer returns the peer at the other end.
func (c *Conn) RemotePeer() ids.ID { return c.key.peer }

// PipeID returns the pipe advertisement the connection was bound over.
func (c *Conn) PipeID() ids.ID { return c.pipeID }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Err returns the terminal error, if the connection failed.
func (c *Conn) Err() error { return c.err }

// OnReadable installs a callback invoked whenever new in-order data (or
// EOF/error) becomes available to Read.
func (c *Conn) OnReadable(fn func()) { c.onReadable = fn }

// OnWritable installs a callback invoked whenever send-buffer space frees
// up after a Write returned short.
func (c *Conn) OnWritable(fn func()) { c.onWritable = fn }

// Buffered returns the number of bytes available to Read.
func (c *Conn) Buffered() int { return len(c.recvBuf) }

// sendSpace returns how many bytes Write can currently accept.
func (c *Conn) sendSpace() int {
	// Send buffer plus in-flight data share the window budget.
	used := len(c.sendBuf) + int(c.sndNxt-c.sndUna)
	if used >= windowBytes {
		return 0
	}
	return windowBytes - used
}

// Write copies up to len(p) bytes into the stream. It is non-blocking: the
// return count may be short (including zero) when the window is full; the
// OnWritable callback signals when to resume. Write after Close or on a
// failed connection returns an error.
func (c *Conn) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.closed || c.state == stateClosed {
		return 0, ErrClosed
	}
	space := c.sendSpace()
	if space < len(p) {
		p = p[:space]
	}
	c.sendBuf = append(c.sendBuf, p...)
	c.pump()
	return len(p), nil
}

// Read drains in-order received bytes into p. It is non-blocking: with no
// data buffered it returns (0, nil), or io.EOF once the peer closed and
// everything was drained. Freed buffer space is re-advertised to the peer
// so a window-limited sender resumes.
func (c *Conn) Read(p []byte) (int, error) {
	if len(c.recvBuf) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		if c.finSeen && c.rcvNxt > c.remoteFin {
			return 0, io.EOF
		}
		return 0, nil
	}
	n := copy(p, c.recvBuf)
	c.recvBuf = c.recvBuf[n:]
	if len(c.recvBuf) == 0 {
		c.recvBuf = nil
	}
	// Window update: a sender stalled on our zero window needs to learn
	// that space freed up. Piggybacking is impossible on a one-way bulk
	// stream, so push an explicit ack once a meaningful chunk has opened —
	// cumulative across Reads, so sub-MSS readers re-advertise too.
	c.freedSinceAck += n
	if c.freedSinceAck >= mss && c.state == stateEstablished {
		c.sendAck()
	}
	return n, nil
}

// Close initiates an orderly shutdown: buffered data is still delivered,
// then a FIN is sent. Read remains usable for data the peer already sent.
func (c *Conn) Close() error {
	if c.closed || c.state == stateClosed {
		return nil
	}
	c.closed = true
	c.pump() // queues the FIN once the buffer drains
	return nil
}

// fail terminates the connection with err and notifies the application.
func (c *Conn) fail(err error) {
	if c.state == stateClosed && c.err != nil {
		return
	}
	wasSynSent := c.state == stateSynSent
	c.state = stateClosed
	c.err = err
	c.stopTimers()
	delete(c.svc.conns, c.key)
	c.ooo = nil
	if wasSynSent && c.onDialed != nil {
		cb := c.onDialed
		c.onDialed = nil
		cb(nil, err)
		return
	}
	if c.onReadable != nil {
		c.onReadable()
	}
	if c.onWritable != nil {
		c.onWritable()
	}
}

func (c *Conn) stopTimers() {
	if c.retxTmr != nil {
		c.retxTmr.Cancel()
		c.retxTmr = nil
	}
	if c.dialDeadline != nil {
		c.dialDeadline.Cancel()
		c.dialDeadline = nil
	}
	if c.lingerTmr != nil {
		c.lingerTmr.Cancel()
		c.lingerTmr = nil
	}
}

// --- Segment transmission ---

// baseMsg starts a pooled segment; send transmits and releases it.
func (c *Conn) baseMsg(t string) *message.Out {
	c.freedSinceAck = 0 // every outgoing segment advertises the window
	m := message.Acquire()
	m.AddString(ns, elemType, t)
	m.AddScratch(ns, elemConn, strconv.AppendUint(m.Scratch(), c.key.id, 10))
	if c.key.initiated {
		m.AddString(ns, elemInit, "1")
	}
	m.AddScratch(ns, elemWnd, strconv.AppendInt(m.Scratch(), int64(c.recvSpace()), 10))
	return m
}

// recvSpace is the free receive buffer this side advertises.
func (c *Conn) recvSpace() int {
	free := windowBytes - len(c.recvBuf)
	if free < 0 {
		return 0
	}
	return free
}

func (c *Conn) send(m *message.Out) {
	c.svc.Stats.SegmentsSent++
	_ = c.svc.ep.Send(c.key.peer, ServiceName, &m.Message)
	m.Release()
}

func (c *Conn) sendSyn() {
	m := c.baseMsg(typeSyn)
	m.AddScratch(ns, elemPipe, c.pipeID.AppendString(m.Scratch()))
	c.send(m)
}

func (c *Conn) sendSynAck() {
	c.send(c.baseMsg(typeSynAck))
}

// sendAck emits a bare cumulative acknowledgement (also the vehicle for
// window updates).
func (c *Conn) sendAck() {
	m := c.baseMsg(typeAck)
	m.AddScratch(ns, elemAck, strconv.AppendUint(m.Scratch(), c.rcvNxt, 10))
	c.send(m)
}

// sendSegment transmits one data/FIN segment.
func (c *Conn) sendSegment(seg segment) {
	m := c.baseMsg(typeData)
	m.AddScratch(ns, elemSeq, strconv.AppendUint(m.Scratch(), seg.seq, 10))
	m.AddScratch(ns, elemAck, strconv.AppendUint(m.Scratch(), c.rcvNxt, 10))
	if seg.fin {
		m.AddString(ns, elemFin, "1")
	}
	if len(seg.data) > 0 {
		m.Add(ns, elemData, seg.data)
	}
	c.send(m)
}

// pump moves bytes from the send buffer into the network while the flow
// window allows, and queues the FIN once everything drained.
func (c *Conn) pump() {
	if c.state != stateEstablished && c.state != stateSynReceived {
		return
	}
	for len(c.sendBuf) > 0 {
		inFlight := int(c.sndNxt - c.sndUna)
		wnd := min(c.peerWnd, windowBytes)
		budget := wnd - inFlight
		if budget <= 0 {
			c.svc.Stats.WindowStalls++
			break
		}
		n := len(c.sendBuf)
		if n > mss {
			n = mss
		}
		if n > budget {
			n = budget
		}
		data := make([]byte, n)
		copy(data, c.sendBuf)
		c.sendBuf = c.sendBuf[n:]
		if len(c.sendBuf) == 0 {
			c.sendBuf = nil
		}
		seg := segment{seq: c.sndNxt, data: data}
		c.sndNxt += uint64(n)
		c.retxQ = append(c.retxQ, seg)
		c.svc.Stats.BytesSent += uint64(n)
		c.sendSegment(seg)
	}
	if c.closed && !c.sentFin && len(c.sendBuf) == 0 {
		c.sentFin = true
		seg := segment{seq: c.sndNxt, fin: true}
		c.sndNxt++ // FIN consumes one sequence unit
		c.retxQ = append(c.retxQ, seg)
		c.sendSegment(seg)
	}
	c.armRetx()
}

// armRetx (re)arms the retransmission timer when unacked segments exist (or
// the handshake is outstanding). The timeout backs off exponentially with
// consecutive retries.
func (c *Conn) armRetx() {
	if c.retxTmr != nil {
		c.retxTmr.Cancel()
		c.retxTmr = nil
	}
	if c.state == stateClosed {
		return
	}
	waiting := len(c.retxQ) > 0 || c.state == stateSynSent || c.state == stateSynReceived
	// A non-empty send buffer with a zero peer window also needs the timer:
	// the ack that reopens the window can be lost, so we must probe.
	if !waiting && len(c.sendBuf) > 0 {
		waiting = true
	}
	if !waiting {
		return
	}
	c.retxTmr = c.svc.env.After(c.currentRTO(), c.onRetxTimeout)
}

// currentRTO computes the retransmission timeout for the next timer arming:
// the initial RTO, doubled per consecutive retry.
func (c *Conn) currentRTO() time.Duration {
	return rto << uint(c.retries)
}

// onRetxTimeout retransmits the oldest outstanding unit: SYN/SYN-ACK during
// the handshake, the first unacked segment when established, or a window
// probe when stalled on a zero peer window.
func (c *Conn) onRetxTimeout() {
	c.retxTmr = nil
	if c.state == stateClosed {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.sendRst()
		c.fail(ErrTimeout)
		return
	}
	c.svc.Stats.SegmentsRetx++
	c.Retx++
	switch {
	case c.state == stateSynSent:
		c.sendSyn()
	case c.state == stateSynReceived && len(c.retxQ) == 0:
		c.sendSynAck()
	case len(c.retxQ) > 0:
		c.sendSegment(c.retxQ[0])
	case len(c.sendBuf) > 0:
		// Zero-window probe: force one byte past the closed window (as TCP
		// does) so the peer's mandatory ack reports its reopened window.
		probe := segment{seq: c.sndNxt, data: []byte{c.sendBuf[0]}}
		c.sendBuf = c.sendBuf[1:]
		if len(c.sendBuf) == 0 {
			c.sendBuf = nil
		}
		c.sndNxt++
		c.retxQ = append(c.retxQ, probe)
		c.svc.Stats.BytesSent++
		c.sendSegment(probe)
	}
	c.armRetx()
}

func (c *Conn) sendRst() {
	c.send(c.baseMsg(typeRst))
}

// --- Inbound demux ---

// receive dispatches inbound stream traffic.
func (s *Service) receive(src ids.ID, m *message.Message) {
	t := m.GetString(ns, elemType)
	id, err := strconv.ParseUint(m.GetString(ns, elemConn), 10, 64)
	if err != nil {
		return
	}
	// A message tagged Init came from the dialer, so on this side the
	// connection is the accepted (non-initiated) one, and vice versa.
	key := connKey{peer: src, id: id, initiated: m.GetString(ns, elemInit) != "1"}
	if t == typeSyn {
		s.handleSyn(src, key, m)
		return
	}
	c, ok := s.conns[key]
	if !ok {
		return // conn long gone (post-linger): drop silently
	}
	if c.state == stateClosed {
		// TIME_WAIT: the peer retransmitted its FIN because our final ack
		// was lost. Re-ack so it can finish instead of backing off to its
		// retry limit; everything else is stale and ignored.
		if c.err == nil && t == typeData {
			c.sendAck()
		}
		return
	}
	if wnd, err := strconv.Atoi(m.GetString(ns, elemWnd)); err == nil {
		c.peerWnd = wnd
	}
	switch t {
	case typeSynAck:
		c.handleSynAck()
	case typeAck:
		if ack, err := strconv.ParseUint(m.GetString(ns, elemAck), 10, 64); err == nil {
			c.handleAck(ack)
		}
	case typeData:
		c.handleData(m)
	case typeRst:
		c.fail(ErrReset)
	}
}

// handleSyn creates (or re-acknowledges) an inbound connection.
func (s *Service) handleSyn(src ids.ID, key connKey, m *message.Message) {
	if c, dup := s.conns[key]; dup {
		// Retransmitted SYN: the SYN-ACK was lost.
		c.sendSynAck()
		return
	}
	pipeID, err := ids.Parse(m.GetString(ns, elemPipe))
	if err != nil {
		return
	}
	l, ok := s.listeners[pipeID]
	if !ok {
		return // no listener: dialer times out, like a filtered port
	}
	c := s.newConn(key)
	c.pipeID = pipeID
	c.state = stateSynReceived
	c.listener = l
	if wnd, err := strconv.Atoi(m.GetString(ns, elemWnd)); err == nil {
		c.peerWnd = wnd
	}
	s.addConn(c)
	c.sendSynAck()
	c.armRetx()
}

// handleSynAck completes the dialer side of the handshake.
func (c *Conn) handleSynAck() {
	if c.state != stateSynSent {
		// Duplicate SYN-ACK (our ACK was lost): re-acknowledge.
		c.sendAck()
		return
	}
	c.state = stateEstablished
	c.retries = 0
	if c.dialDeadline != nil {
		c.dialDeadline.Cancel()
		c.dialDeadline = nil
	}
	c.sendAck()
	cb := c.onDialed
	c.onDialed = nil
	c.armRetx()
	if cb != nil {
		cb(c, nil)
	}
	c.pump()
}

// establishAccepted promotes a SYN-RECEIVED connection when any segment
// from the dialer arrives (the handshake ACK, or data if that ACK was
// lost). A connection whose listener closed mid-handshake is reset instead
// of silently accepted into the void.
func (c *Conn) establishAccepted() {
	if c.state != stateSynReceived {
		return
	}
	l := c.listener
	if l == nil {
		c.sendRst()
		c.fail(ErrClosed)
		return
	}
	c.state = stateEstablished
	c.retries = 0
	c.listener = nil
	c.armRetx()
	l.Accepted++
	c.svc.Stats.ConnsAccepted++
	if l.accept != nil {
		l.accept(c)
	}
	c.pump()
}

// handleAck advances the cumulative ack point.
func (c *Conn) handleAck(ack uint64) {
	c.establishAccepted()
	if c.state == stateClosed {
		return // reset during establishment
	}
	if ack <= c.sndUna {
		// Window update only: the receiver may have reopened its window
		// (receive() already refreshed peerWnd), so a stalled sender must
		// resume now rather than wait for the RTO zero-window probe.
		c.armRetx()
		c.pump()
		if c.onWritable != nil && c.sendSpace() > 0 {
			c.onWritable()
		}
		return
	}
	if ack > c.sndNxt {
		return // acking data we never sent: ignore
	}
	advanced := ack - c.sndUna
	c.sndUna = ack
	c.retries = 0
	// Drop fully acked segments.
	i := 0
	for i < len(c.retxQ) {
		seg := c.retxQ[i]
		end := seg.seq + uint64(len(seg.data))
		if seg.fin {
			end++
		}
		if end > ack {
			break
		}
		if seg.fin {
			c.finAcked = true
		}
		i++
	}
	if i > 0 {
		c.retxQ = append(c.retxQ[:0], c.retxQ[i:]...)
	}
	c.BytesSent += advanced
	if c.sentFin && c.finAcked {
		c.BytesSent-- // the FIN's sequence unit is not payload
	}
	c.maybeTeardown()
	c.armRetx()
	c.pump()
	if c.onWritable != nil && c.sendSpace() > 0 {
		c.onWritable()
	}
}

// handleData ingests a data/FIN segment: in-order bytes extend the receive
// buffer (and drain the reassembly map), out-of-order segments are parked.
// Every data arrival is answered with a cumulative ack.
func (c *Conn) handleData(m *message.Message) {
	c.establishAccepted()
	if c.state == stateClosed {
		return // reset during establishment
	}
	seq, err := strconv.ParseUint(m.GetString(ns, elemSeq), 10, 64)
	if err != nil {
		return
	}
	if ack, err := strconv.ParseUint(m.GetString(ns, elemAck), 10, 64); err == nil {
		c.handleAck(ack)
	}
	data, _ := m.Get(ns, elemData)
	fin := m.GetString(ns, elemFin) == "1"
	if fin {
		c.finSeen = true
		c.remoteFin = seq + uint64(len(data))
	}
	switch {
	case seq == c.rcvNxt:
		c.ingest(data)
		// The reassembly map may now continue the stream.
		for {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.ingest(next)
		}
	case seq > c.rcvNxt:
		// Out of order: park it unless it overruns the receive window.
		if len(data) > 0 && seq+uint64(len(data)) <= c.rcvNxt+windowBytes {
			if _, dup := c.ooo[seq]; !dup {
				cp := make([]byte, len(data))
				copy(cp, data)
				if c.ooo == nil {
					c.ooo = make(map[uint64][]byte)
				}
				c.ooo[seq] = cp
			}
		}
	default:
		c.svc.Stats.SegmentsDup++
	}
	if c.finSeen && c.rcvNxt == c.remoteFin {
		c.rcvNxt++ // consume the FIN's sequence unit
	}
	c.sendAck()
	c.maybeTeardown()
	if c.onReadable != nil && (len(c.recvBuf) > 0 || c.finSeen && c.rcvNxt > c.remoteFin) {
		c.onReadable()
	}
}

// ingest appends in-order payload bytes to the receive buffer.
func (c *Conn) ingest(data []byte) {
	if len(data) == 0 {
		return
	}
	c.recvBuf = append(c.recvBuf, data...)
	c.rcvNxt += uint64(len(data))
	c.BytesRecv += uint64(len(data))
	c.svc.Stats.BytesDelivered += uint64(len(data))
}

// lingerRTOs is the TIME_WAIT length in units of the initial RTO: long
// enough to re-ack a peer's retransmitted FIN through a few loss-induced
// backoff rounds before the connection record is reclaimed.
const lingerRTOs = 8

// maybeTeardown finishes the connection once both directions shut down:
// our FIN is acked and the peer's FIN was received. The state stays
// readable — the application drains recvBuf at its leisure — and the
// record lingers in the connection table (TIME_WAIT) so a retransmitted
// FIN whose ack was lost is re-acked instead of silently ignored.
func (c *Conn) maybeTeardown() {
	if !(c.sentFin && c.finAcked && c.finSeen && c.rcvNxt > c.remoteFin) {
		return
	}
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.stopTimers()
	svc, key := c.svc, c.key
	c.lingerTmr = svc.env.After(lingerRTOs*rto, func() {
		c.lingerTmr = nil
		if cur, ok := svc.conns[key]; ok && cur == c {
			delete(svc.conns, key)
			c.ooo = nil
		}
	})
	if c.onReadable != nil {
		c.onReadable() // lets a reader observe EOF
	}
}
