// Package endpoint implements the JXTA endpoint service and the Endpoint
// Routing Protocol (ERP). The endpoint service is the bottom of the JXTA
// stack (Figure 1 of the paper): it owns the peer's transport, demultiplexes
// inbound messages to the services above (resolver, rendezvous, discovery),
// and finds routes from a source peer to a destination peer.
//
// Routing model: every peer keeps a route table peerID -> transport address.
// Routes are learned from advertisements (rendezvous advertisements carry
// addresses), from inbound traffic (each envelope carries the sender's
// address), from ERP route responses, and can be relayed: a message whose
// destination is not the receiving peer is forwarded along the receiver's
// own route, hop count permitting — this is how edge peers reach peers they
// only know through their rendezvous.
package endpoint

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/transport"
)

// Envelope element names, namespace "ep".
const (
	ns          = "ep"
	elemSrc     = "Src"     // sender peer ID
	elemDst     = "Dst"     // destination peer ID
	elemSvc     = "Svc"     // destination service name
	elemSrcAddr = "SrcAddr" // sender transport address (return route learning)
	elemTTL     = "TTL"     // remaining relay hops
)

// ERP protocol element names (service "erp").
const (
	erpService   = "erp"
	elemRouteQ   = "RouteQuery"    // target peer ID being resolved
	elemRouteRsp = "RouteResponse" // route advertisement XML
	elemRouteTgt = "RouteTarget"   // address of the target
)

// defaultTTL bounds relay forwarding.
const defaultTTL = 8

// Hello bootstrap protocol (service "ep.hello"): a node that only knows a
// transport address sends a hello request; the receiver answers, revealing
// its peer ID through the envelope. Live TCP deployments use it to turn a
// configured seed address into a peerview.Seed.
const (
	helloService = "ep.hello"
	elemHelloReq = "HelloReq"
	elemHelloAck = "HelloAck"
)

// helloTimeout bounds a Hello exchange.
const helloTimeout = 10 * time.Second

// Handler consumes a message addressed to a registered service. msg is the
// delivered wire message, on loan from the transport for the duration of the
// call (transport.Handler): a service copies what it keeps.
type Handler func(src ids.ID, msg *message.Message)

// helloWaiter is a pending Hello resolution. cancel silences the waiter
// (timer canceled, callback never fired) when the endpoint stops.
type helloWaiter struct {
	addr   transport.Addr
	cb     func(peer ids.ID)
	cancel func()
}

// RouteCallback receives the outcome of an asynchronous route resolution.
type RouteCallback func(target ids.ID, addr transport.Addr, ok bool)

// Errors.
var (
	ErrNoRoute     = errors.New("endpoint: no route to peer")
	ErrNoService   = errors.New("endpoint: no such service")
	ErrBadEnvelope = errors.New("endpoint: malformed envelope")
)

// Endpoint is one peer's endpoint service.
type Endpoint struct {
	env   env.Env
	id    ids.ID
	idStr string // URN form of id, rendered once: every send stamps it
	tr    transport.Transport
	// addrStr caches the transport address string stamped on every send.
	addrStr string
	// slots and routes are the service and route tables (tables.go); pending
	// is nil until the first ResolveRoute.
	slots        []slot
	routes       routeTable
	pending      map[ids.ID][]RouteCallback
	helloWaiters []helloWaiter

	// Drops counts messages that could not be delivered locally or
	// forwarded (no handler, TTL exhausted, no route).
	Drops uint64

	// m holds the runtime instruments; always non-nil (New pre-instruments
	// against a private registry, node.New re-instruments with the node's).
	m *epMetrics
}

// New binds an endpoint service for peer id over the given transport and
// registers the ERP handler. The transport's inbound handler is claimed.
func New(e env.Env, id ids.ID, tr transport.Transport) *Endpoint {
	ep := &Endpoint{
		env:     e,
		id:      id,
		idStr:   id.String(),
		tr:      tr,
		addrStr: string(tr.Addr()),
	}
	tr.SetHandler(ep.dispatch)
	ep.Register(erpService, ep.handleERP)
	ep.Register(helloService, ep.handleHello)
	ep.Instrument(metrics.Discard())
	return ep
}

// Hello resolves the peer ID listening at a transport address. cb fires
// once, with ok=false on timeout; a stopped endpoint silences the waiter
// without firing it.
func (ep *Endpoint) Hello(addr transport.Addr, cb func(peer ids.ID, ok bool)) {
	done := false
	fail := func() {
		if !done {
			done = true
			cb(ids.Nil, false)
		}
	}
	timer := ep.env.After(helloTimeout, fail)
	ep.helloWaiters = append(ep.helloWaiters, helloWaiter{
		addr: addr,
		cb: func(peer ids.ID) {
			if !done {
				done = true
				timer.Cancel()
				cb(peer, true)
			}
		},
		cancel: func() { timer.Cancel() },
	})
	ep.m.helloSent.Inc()
	m := message.Acquire()
	m.AddString(ns, elemHelloReq, "1")
	err := ep.sendTo(addr, ids.Nil, helloService, &m.Message, defaultTTL)
	m.Release()
	if err != nil {
		// Transport refused outright; fail on the next tick instead of the
		// full timeout.
		timer.Cancel()
		timer = ep.env.After(0, fail)
	}
}

func (ep *Endpoint) handleHello(src ids.ID, msg *message.Message) {
	if msg.GetString(ns, elemHelloReq) != "" {
		ep.m.helloServed.Inc()
		ack := message.Acquire()
		ack.AddString(ns, elemHelloAck, "1")
		_ = ep.Send(src, helloService, &ack.Message)
		ack.Release()
		return
	}
	if msg.GetString(ns, elemHelloAck) == "" {
		return
	}
	addr, ok := ep.RouteTo(src)
	if !ok {
		return
	}
	kept := ep.helloWaiters[:0]
	for _, w := range ep.helloWaiters {
		if w.addr == addr {
			w.cb(src)
			continue
		}
		kept = append(kept, w)
	}
	ep.helloWaiters = kept
}

// ID returns the local peer ID.
func (ep *Endpoint) ID() ids.ID { return ep.id }

// IDString returns the local peer ID in URN form, rendered once at
// construction. Hot keying/logging paths should prefer it over
// ID().String(), which re-renders the URN on every call.
func (ep *Endpoint) IDString() string { return ep.idStr }

// Addr returns the local transport address.
func (ep *Endpoint) Addr() transport.Addr { return ep.tr.Addr() }

// Register installs a service handler. Registering the same name twice
// replaces the handler (services restart across leases).
func (ep *Endpoint) Register(service string, h Handler) {
	ep.slotFor(service).h = h
}

// Quiescent reports whether the endpoint holds no in-flight work: no pending
// route resolutions, no outstanding Hello waiters.
func (ep *Endpoint) Quiescent() bool {
	return len(ep.pending) == 0 && len(ep.helloWaiters) == 0
}

// Transport exposes the underlying transport (deployment-level lifecycle
// management re-attaches it on restart).
func (ep *Endpoint) Transport() transport.Transport { return ep.tr }

// Stop quiesces the endpoint's own pending work: outstanding Hello timers
// are canceled and un-fired route resolutions are abandoned (their callbacks
// never fire). Handlers, routes and the transport binding are retained, so
// the endpoint keeps serving a restarted node.
func (ep *Endpoint) Stop() {
	for _, w := range ep.helloWaiters {
		w.cancel()
	}
	ep.helloWaiters = nil
	ep.pending = nil
}

// Close releases the endpoint: pending work is quiesced as in Stop and the
// transport endpoint itself is closed, so the peer disappears from the
// network. Routes and handlers are retained for a potential restart over a
// re-attached transport.
func (ep *Endpoint) Close() {
	ep.Stop()
	_ = ep.tr.Close()
}

// Reset clears the learned route table (restart with fresh state: routes are
// re-learned from seeds, advertisements and inbound traffic).
func (ep *Endpoint) Reset() {
	ep.Stop()
	ep.routes = routeTable{}
}

// AddRoute records a direct route to a peer.
func (ep *Endpoint) AddRoute(peer ids.ID, addr transport.Addr) {
	if peer.Equal(ep.id) || addr == "" {
		return
	}
	ep.routes.put(peer, addr)
	// Wake any pending resolutions.
	if cbs, ok := ep.pending[peer]; ok {
		delete(ep.pending, peer)
		for _, cb := range cbs {
			cb(peer, addr, true)
		}
	}
}

// LearnRoute records a peer's return route, given as received bytes, only if
// it is new or changed: a peer heard from again costs a comparison.
func (ep *Endpoint) LearnRoute(peer ids.ID, addr []byte) {
	if len(addr) == 0 || peer.Equal(ep.id) {
		return
	}
	if cur, ok := ep.routes.get(peer); !ok || string(cur) != string(addr) {
		ep.AddRoute(peer, transport.Addr(addr))
	}
}

// DropRoute forgets a route (lease expiry, crash suspicion).
func (ep *Endpoint) DropRoute(peer ids.ID) {
	ep.routes.del(peer)
}

// RouteTo reports the known route to a peer.
func (ep *Endpoint) RouteTo(peer ids.ID) (transport.Addr, bool) {
	return ep.routes.get(peer)
}

// KnownPeers returns the peers with direct routes, in unspecified order.
func (ep *Endpoint) KnownPeers() []ids.ID {
	return ep.routes.peers()
}

// Send delivers msg to the named service on the destination peer, using the
// direct route. The message is wrapped in an envelope carrying the local
// peer ID and address so the receiver learns the return route.
func (ep *Endpoint) Send(dst ids.ID, service string, msg *message.Message) error {
	if dst.Equal(ep.id) {
		// Local delivery without touching the network (a rendezvous acts
		// as its own rendezvous, §3.3 step 1).
		if s := findSlot(ep.slots, service); s != nil && s.h != nil {
			h := s.h
			local := msg.Clone() // kept until the handler runs, a tick from now
			ep.env.After(0, func() { h(ep.id, local) })
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoService, service)
	}
	addr, ok := ep.routes.get(dst)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoute, dst.Short())
	}
	return ep.sendTo(addr, dst, service, msg, defaultTTL)
}

// SendVia relays msg toward dst through an intermediate peer with a known
// route (the edge peer's rendezvous, typically).
func (ep *Endpoint) SendVia(relay, dst ids.ID, service string, msg *message.Message) error {
	addr, ok := ep.routes.get(relay)
	if !ok {
		return fmt.Errorf("%w: relay %s", ErrNoRoute, relay.Short())
	}
	return ep.sendTo(addr, dst, service, msg, defaultTTL)
}

// transmit hands a pooled wire message to the transport and recycles it:
// transports copy or serialize inside Send and retain nothing (the
// transport.Transport contract), so the message goes back to the pool as
// soon as Send returns.
func (ep *Endpoint) transmit(addr transport.Addr, wire *message.Out) error {
	err := ep.tr.Send(addr, &wire.Message)
	wire.Release()
	return err
}

// sendTo builds the short-lived wire form of one outbound message — the
// caller's elements, aliased, followed by the envelope — and transmits it.
func (ep *Endpoint) sendTo(addr transport.Addr, dst ids.ID, service string, msg *message.Message, ttl int) error {
	wire := message.Acquire()
	wire.Append(msg)
	wire.AddString(ns, elemSrc, ep.idStr)
	wire.AddScratch(ns, elemDst, dst.AppendString(wire.Scratch()))
	wire.AddString(ns, elemSvc, service)
	wire.AddString(ns, elemSrcAddr, ep.addrStr)
	wire.AddString(ns, elemTTL, strconv.Itoa(ttl)) // small ints: a constant table, no allocation
	sc := ep.counters(ep.slotFor(service))
	sc.txMsgs.Inc()
	sc.txBytes.Add(uint64(wire.Size()))
	return ep.transmit(addr, wire)
}

// ServiceOf reports which service a wire message is addressed to.
// Instrumentation (message-complexity experiments) uses it to classify
// traffic without depending on envelope internals.
func ServiceOf(m *message.Message) string { return m.GetString(ns, elemSvc) }

// envelope is the five ep: elements of a wire message, read in place: the
// slices alias the message's payloads.
type envelope struct {
	src, dst, svc, srcAddr, ttl []byte
}

func readEnvelope(wire *message.Message) (e envelope) {
	wire.Read(ns,
		message.Field{Name: elemSrc, Into: &e.src},
		message.Field{Name: elemDst, Into: &e.dst},
		message.Field{Name: elemSvc, Into: &e.svc},
		message.Field{Name: elemSrcAddr, Into: &e.srcAddr},
		message.Field{Name: elemTTL, Into: &e.ttl})
	return e
}

// dispatch demultiplexes an inbound wire message: learn the return route,
// then either deliver locally or relay toward the destination. The envelope
// is read as bytes, so a message on the steady-state path (known service,
// known return route) allocates nothing here. It is the transport's inbound
// entry point, and enters the node under the env's lock: transports such as
// TCP deliver from their own goroutines.
func (ep *Endpoint) dispatch(from transport.Addr, wire *message.Message) {
	if l := ep.env.Locker(); l != nil {
		l.Lock()
		defer l.Unlock()
	}
	e := readEnvelope(wire)
	srcID, err := ids.ParseBytes(e.src)
	if err != nil {
		ep.Drops++
		return
	}
	dstID, err := ids.ParseBytes(e.dst)
	if err != nil {
		ep.Drops++
		return
	}
	ep.LearnRoute(srcID, e.srcAddr)
	var h Handler
	s := findSlot(ep.slots, e.svc)
	if s != nil {
		h = s.h
	}
	sc := ep.rxMetrics(s)
	sc.rxMsgs.Inc()
	sc.rxBytes.Add(uint64(wire.Size()))
	// A nil destination addresses "whichever peer listens at this address"
	// — the hello bootstrap, when the sender does not yet know our ID.
	if !dstID.IsNil() && !dstID.Equal(ep.id) {
		ep.relay(dstID, wire, e.ttl)
		return
	}
	if h == nil {
		ep.Drops++
		return
	}
	h(srcID, wire)
}

// parseTTL reads a decimal hop count without allocating. Anything that is
// not plain digits, or is absurdly large, is malformed.
func parseTTL(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// relay forwards a transit message toward its destination, decrementing the
// TTL. The envelope (including the original source) is preserved.
func (ep *Endpoint) relay(dst ids.ID, wire *message.Message, ttlText []byte) {
	ttl, ok := parseTTL(ttlText)
	if !ok || ttl <= 1 {
		ep.Drops++
		return
	}
	addr, ok := ep.routes.get(dst)
	if !ok {
		ep.Drops++
		return
	}
	fwd := message.Acquire()
	for _, el := range wire.Elements() {
		if el.Namespace == ns && el.Name == elemTTL {
			fwd.AddString(ns, elemTTL, strconv.Itoa(ttl-1))
			continue
		}
		fwd.Add(el.Namespace, el.Name, el.Data)
	}
	if err := ep.transmit(addr, fwd); err != nil {
		ep.Drops++
		return
	}
	ep.m.relays.Inc()
}

// ResolveRoute asynchronously resolves a route to target by querying a peer
// we can already reach (usually the rendezvous). If the route is already
// known the callback fires on the next tick.
func (ep *Endpoint) ResolveRoute(target, via ids.ID, cb RouteCallback) {
	if addr, ok := ep.routes.get(target); ok {
		ep.env.After(0, func() { cb(target, addr, true) })
		return
	}
	if ep.pending == nil {
		ep.pending = make(map[ids.ID][]RouteCallback)
	}
	ep.pending[target] = append(ep.pending[target], cb)
	q := message.Acquire()
	q.AddScratch(ns, elemRouteQ, target.AppendString(q.Scratch()))
	err := ep.Send(via, erpService, &q.Message)
	q.Release()
	if err != nil {
		// The relay itself is unreachable; fail the resolution.
		delete(ep.pending, target)
		ep.env.After(0, func() { cb(target, "", false) })
	}
}

// handleERP answers route queries and consumes route responses.
func (ep *Endpoint) handleERP(src ids.ID, msg *message.Message) {
	if q := msg.GetString(ns, elemRouteQ); q != "" {
		target, err := ids.Parse(q)
		if err != nil {
			return
		}
		addr, ok := ep.routes.get(target)
		if !ok {
			return // unanswerable; requester times out
		}
		route := &advertisement.Route{DestID: target}
		data, err := advertisement.EncodeXML(route)
		if err != nil {
			return
		}
		rsp := message.Acquire()
		rsp.Add(ns, elemRouteRsp, data)
		rsp.AddString(ns, elemRouteTgt, string(addr))
		// Best effort: the requester is reachable, we just heard from it.
		_ = ep.Send(src, erpService, &rsp.Message)
		rsp.Release()
		return
	}
	if data, ok := msg.Get(ns, elemRouteRsp); ok {
		adv, err := advertisement.DecodeXML(data)
		if err != nil {
			return
		}
		route, ok := adv.(*advertisement.Route)
		if !ok {
			return
		}
		addr := transport.Addr(msg.GetString(ns, elemRouteTgt))
		if addr != "" {
			ep.AddRoute(route.DestID, addr) // also fires pending callbacks
		}
	}
}
