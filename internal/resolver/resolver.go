// Package resolver implements the JXTA peer resolver protocol: the generic,
// topology-independent query/response layer sitting between the rendezvous
// protocol and higher services (Figure 1 of the paper). A resolver serves one
// named handler (a node's is discovery's, a routing member's its backend's);
// queries carry the handler name, a query ID, the source peer and its return
// address, and a hop count. A handler may answer a query, forward it toward
// a better-placed peer (the LC-DHT replica walk), or ignore it. Responses
// travel directly back to the querying peer.
//
// A handler is lent its *Query for the call: the resolver fills one Query per
// service and zeroes it when the handler returns, and SrcAddr and Payload are
// views of the delivered message. A handler that acts on a query later keeps
// a copy of the struct and of both slices. A response payload is on loan too.
package resolver

import (
	"strconv"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
)

// ServiceName is the endpoint service the resolver listens on.
const ServiceName = "resolver"

// Message elements, namespace "res".
const (
	ns           = "res"
	elemHandler  = "Handler"
	elemQID      = "QID"
	elemSrc      = "Src"
	elemSrcAddr  = "SrcAddr"
	elemHops     = "Hops"
	elemQuery    = "Query"
	elemResponse = "Response"
)

// MaxHops bounds query forwarding; the LC-DHT walk is O(r) so the bound must
// exceed any experiment's rendezvous count.
const MaxHops = 1024

// Query is an in-flight resolver query as seen by a handler, on loan for the
// call (see the package doc): a handler that parks it past its own return
// copies the struct, SrcAddr and Payload first.
type Query struct {
	Handler string
	QID     uint64
	Src     ids.ID // the originating peer
	SrcAddr []byte // return route hint, a transport address
	Hops    int
	Payload []byte
}

// Handler processes queries addressed to a registered name. The handler owns
// the query: it may call Respond, Forward, both or neither.
type Handler func(q *Query)

// ResponseCallback receives a response to a locally issued query. payload is
// on loan like Query.Payload: valid for the duration of the call. from is
// the responding peer; hops is how many resolver forwards the query took
// before it was answered (0: answered by the peer it was sent to), echoed
// back in the response so originators can account routing cost per lookup.
type ResponseCallback func(payload []byte, from ids.ID, hops int)

// TimeoutCallback fires if no response arrived within the query timeout.
type TimeoutCallback func(qid uint64)

// Service is one peer's resolver.
type Service struct {
	env env.Env
	ep  *endpoint.Endpoint

	// name and h are the one registered handler; recvd counts the queries
	// dispatched to it.
	name  string
	h     Handler
	recvd uint64
	// pending is nil until a query is issued (reads of a nil map are
	// already correct).
	pending map[uint64]*pendingQuery
	nextQID uint64

	// Timeout is how long a locally issued query waits for its first
	// response before the timeout callback fires, and how long a collecting
	// query stays open. Zero disables timeouts.
	Timeout time.Duration

	// lent is the Query receive lends, nil until the first query and while
	// lent out.
	lent *Query
	// free lists the pending-query records no query holds, linked through
	// next.
	free *pendingQuery

	n counts
}

// pendingQuery is a locally issued query awaiting its answer. A query
// completes on its first response; a collecting one (SendCollect) hears
// every response until its deadline and only records that one arrived.
//
// It is a recycled record: forget and the deadline return it to the free
// list, and the next query reuses it. Its QID is the generation. A late or
// duplicate response names a QID that pending no longer holds, and forget
// cancels the deadline, so nothing of an old query reaches the record's next
// owner.
type pendingQuery struct {
	s         *Service
	qid       uint64
	cb        ResponseCallback
	onTimeout TimeoutCallback
	timer     env.Event
	collect   bool
	answered  bool
	next      *pendingQuery // on the free list
	fire      func()        // expire, bound once
}

// New builds the resolver for a peer and registers its endpoint handler.
func New(e env.Env, ep *endpoint.Endpoint) *Service {
	s := &Service{env: e, ep: ep, Timeout: 30 * time.Second}
	ep.Register(ServiceName, s.receive)
	return s
}

// RegisterHandler installs the query handler, replacing any earlier one: a
// query that names another handler is dropped.
func (s *Service) RegisterHandler(name string, h Handler) {
	s.name, s.h = name, h
}

// SendQuery issues a query to the given peer (an edge peer sends to its
// rendezvous; a rendezvous may query any peerview member). The query
// completes on its first response, which reaches cb; later responses are
// dropped. onTimeout (optional) fires instead if nothing arrived within
// Timeout. Either way the resolver then holds nothing of the query. The query
// ID is returned for correlation.
func (s *Service) SendQuery(dst ids.ID, handler string, payload []byte, cb ResponseCallback, onTimeout TimeoutCallback) (uint64, error) {
	return s.send(dst, handler, payload, cb, onTimeout, false)
}

// SendCollect is SendQuery for a caller that wants every responder: cb fires
// for each response until Timeout has elapsed or Stop abandons the query, and
// onTimeout fires at the deadline only if nothing was answered. With Timeout
// zero the query stays open until Stop.
func (s *Service) SendCollect(dst ids.ID, handler string, payload []byte, cb ResponseCallback, onTimeout TimeoutCallback) (uint64, error) {
	return s.send(dst, handler, payload, cb, onTimeout, true)
}

func (s *Service) send(dst ids.ID, handler string, payload []byte, cb ResponseCallback, onTimeout TimeoutCallback, collect bool) (uint64, error) {
	s.nextQID++
	qid := s.nextQID
	p := s.free
	if p != nil {
		s.free = p.next
	} else {
		p = &pendingQuery{s: s}
		p.fire = p.expire
	}
	p.qid, p.cb, p.onTimeout, p.collect, p.next = qid, cb, onTimeout, collect, nil
	if s.Timeout > 0 {
		// forget cancels the timer: while it can fire, p is pending.
		p.timer = s.env.After(s.Timeout, p.fire)
	}
	if s.pending == nil {
		s.pending = make(map[uint64]*pendingQuery)
	}
	s.pending[qid] = p

	m := message.Acquire()
	m.AddString(ns, elemHandler, handler)
	m.AddScratch(ns, elemQID, strconv.AppendUint(m.Scratch(), qid, 10))
	m.AddString(ns, elemSrc, s.ep.IDString())
	m.AddString(ns, elemSrcAddr, string(s.ep.Addr()))
	m.AddString(ns, elemHops, "0")
	m.Add(ns, elemQuery, payload)
	err := s.ep.Send(dst, ServiceName, &m.Message)
	m.Release()
	if err != nil {
		s.forget(qid, p)
		return 0, err
	}
	s.n.queriesSent++
	return qid, nil
}

// expire is a pending query's deadline: the query leaves the table and its
// record the resolver, and the time-out callback runs unless a collecting
// query heard an answer.
func (p *pendingQuery) expire() {
	s, qid, answered, onTimeout := p.s, p.qid, p.answered, p.onTimeout
	delete(s.pending, qid)
	s.recycle(p)
	if answered {
		return // a collecting query's deadline, not a time-out
	}
	s.n.timeouts++
	if onTimeout != nil {
		onTimeout(qid)
	}
}

// forget removes a pending query, disarms its deadline and frees its record.
func (s *Service) forget(qid uint64, p *pendingQuery) {
	delete(s.pending, qid)
	p.timer.Cancel()
	s.recycle(p)
}

// recycle clears a record, dropping what its callbacks capture, and puts it
// on the free list.
func (s *Service) recycle(p *pendingQuery) {
	*p = pendingQuery{s: s, fire: p.fire, next: s.free}
	s.free = p
}

// Stop abandons every pending query: timeout timers are canceled and
// neither the response nor the timeout callback will fire. Handlers stay
// registered, so a restarted node resumes serving queries immediately.
// Query IDs keep increasing across restarts (late responses to pre-stop
// queries must not be confused with answers to new ones).
func (s *Service) Stop() {
	for qid, p := range s.pending {
		s.forget(qid, p)
	}
}

// Quiescent reports whether the resolver is idle: no locally issued query
// is awaiting a response or timeout.
func (s *Service) Quiescent() bool { return len(s.pending) == 0 }

// Respond sends a response for the given query directly to its originator.
// The responder learns the originator's route from the query itself.
func (s *Service) Respond(q *Query, payload []byte) error {
	s.ep.LearnRoute(q.Src, q.SrcAddr)
	m := message.Acquire()
	m.AddString(ns, elemHandler, q.Handler)
	m.AddScratch(ns, elemQID, strconv.AppendUint(m.Scratch(), q.QID, 10))
	m.AddScratch(ns, elemHops, strconv.AppendInt(m.Scratch(), int64(q.Hops), 10))
	m.Add(ns, elemResponse, payload)
	err := s.ep.Send(q.Src, ServiceName, &m.Message)
	m.Release()
	if err != nil {
		return err
	}
	s.n.responses++
	return nil
}

// Forward relays the query to another peer, preserving the originator and
// query ID and incrementing the hop count. Handlers use this to route
// queries toward the LC-DHT replica peer or along the walk.
func (s *Service) Forward(q *Query, to ids.ID) error {
	if q.Hops+1 >= MaxHops {
		return nil // poisoned query: drop silently
	}
	m := message.Acquire()
	m.AddString(ns, elemHandler, q.Handler)
	m.AddScratch(ns, elemQID, strconv.AppendUint(m.Scratch(), q.QID, 10))
	m.AddScratch(ns, elemSrc, q.Src.AppendString(m.Scratch()))
	m.Add(ns, elemSrcAddr, q.SrcAddr)
	m.AddScratch(ns, elemHops, strconv.AppendInt(m.Scratch(), int64(q.Hops+1), 10))
	m.Add(ns, elemQuery, q.Payload)
	err := s.ep.Send(to, ServiceName, &m.Message)
	m.Release()
	if err != nil {
		return err
	}
	s.n.forwards++
	return nil
}

// HandlerOf reports which resolver handler a wire message addresses (empty
// for non-resolver messages). Used by traffic-classification instrumentation.
func HandlerOf(m *message.Message) string { return m.GetString(ns, elemHandler) }

// header is the res: elements of a resolver message, read in place: the
// slices alias the message's payloads. A query or a response may be empty,
// so their presence is recorded apart.
type header struct {
	handler, qid, src, srcAddr, hops, query, response []byte
	hasQuery, hasResponse                             bool
}

func readHeader(m *message.Message) (h header) {
	present := m.Read(ns,
		message.Field{Name: elemQuery, Into: &h.query},
		message.Field{Name: elemResponse, Into: &h.response},
		message.Field{Name: elemHandler, Into: &h.handler},
		message.Field{Name: elemQID, Into: &h.qid},
		message.Field{Name: elemSrc, Into: &h.src},
		message.Field{Name: elemSrcAddr, Into: &h.srcAddr},
		message.Field{Name: elemHops, Into: &h.hops})
	h.hasQuery, h.hasResponse = present&1 != 0, present&2 != 0 // the first two fields
	return h
}

// receive demultiplexes resolver traffic. The header is read as bytes —
// the numbers parse from views that never reach the heap, the handler is
// matched by comparison — and the handler is lent the service's one Query, so
// a query costs nothing here.
func (s *Service) receive(src ids.ID, m *message.Message) {
	h := readHeader(m)
	qid, err := strconv.ParseUint(string(h.qid), 10, 64)
	if err != nil {
		return
	}
	if h.hasResponse {
		if p, ok := s.pending[qid]; ok {
			// The first response completes a query: from here on nothing
			// holds it, its callbacks or what they capture, and its record
			// is free before cb runs, for a query cb issues. A collecting
			// query stays open to its deadline.
			cb := p.cb
			if p.collect {
				p.answered = true
			} else {
				s.forget(qid, p)
			}
			// Hop count echoed by Respond. An absent, malformed or negative
			// count is input to validate, not a reason to drop the answer:
			// it reads as 0 and the response still completes the query.
			hops, err := strconv.Atoi(string(h.hops))
			if err != nil || hops < 0 {
				hops = 0
			}
			s.n.responsesIn++
			cb(h.response, src, hops)
		}
		return
	}
	if !h.hasQuery {
		return
	}
	srcID, err := ids.ParseBytes(h.src)
	if err != nil {
		return
	}
	hops, err := strconv.Atoi(string(h.hops))
	if err != nil || hops < 0 || hops >= MaxHops {
		return
	}
	if s.h == nil || string(h.handler) != s.name {
		return
	}
	s.recvd++
	q := s.lent
	if q == nil {
		q = new(Query)
	}
	s.lent = nil
	*q = Query{Handler: s.name, QID: qid, Src: srcID, SrcAddr: h.srcAddr, Hops: hops, Payload: h.query}
	s.h(q)
	*q = Query{}
	s.lent = q
}
