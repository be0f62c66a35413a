// Package endpoint implements the JXTA endpoint service, the bottom of the
// JXTA stack (Figure 1 of the paper): it owns the peer's transport and
// demultiplexes inbound messages to the services above (resolver,
// rendezvous, discovery).
//
// Routing model: every peer knows a route peerID -> transport address for the
// peers it talks to. Routes are learned from advertisements (rendezvous
// advertisements carry addresses) and from inbound traffic (each envelope
// carries the sender's address, which is the only route a message can add or
// change). A rendezvous' view members route through its peerview, which is
// the endpoint's RouteSource: each entry's advertisement names the member's
// address, and a stranger that a referral named is routed at the referral's
// address while the peerview probes it. The endpoint's own route table holds
// everyone else — lease clients, seeds, peers that left the view or never
// answered a probe — and a view member only while the last route written for
// it differs from the address its entry names. An edge has no source: its
// table holds all its routes. Either way a route answers as the last one
// written for the peer. A peer sends only along its own direct routes: there
// is no route resolution protocol and no relaying, so a message addressed to
// another peer is dropped.
package endpoint

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/transport"
)

// Envelope element names, namespace "ep".
const (
	ns          = "ep"
	elemSrc     = "Src"     // sender peer ID
	elemDst     = "Dst"     // destination peer ID
	elemSvc     = "Svc"     // destination service name
	elemSrcAddr = "SrcAddr" // sender transport address (return route learning)
	elemTTL     = "TTL"     // hop count, written and never read
)

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

// helloWaiter is a pending Hello resolution. It leaves the endpoint's list
// when its answer arrives, when its timer fires, or on Stop.
type helloWaiter struct {
	addr  transport.Addr
	cb    func(peer ids.ID, ok bool)
	timer env.Event
}

// Errors.
var (
	ErrNoRoute   = errors.New("endpoint: no route to peer")
	ErrNoService = errors.New("endpoint: no such service")
)

// Endpoint is one peer's endpoint service.
type Endpoint struct {
	env   env.Env
	id    ids.ID
	idStr string // URN form of id, rendered once: every send stamps it
	tr    transport.Transport
	// view is the rendezvous' route source, nil on an edge. sendTo reads
	// the transport's address instead of a cached copy, which keeps an
	// edge's Endpoint in its 192-byte size class with this field
	// (TestEndpointFitsItsSizeClass).
	view RouteSource
	// slots and routes are the service and route tables (tables.go).
	slots        []slot
	routes       routeTable
	helloWaiters []*helloWaiter

	// Drops counts inbound messages that were not delivered (malformed
	// envelope, addressed to another peer, no handler).
	Drops uint64
	// helloSent and helloServed count Hello requests sent and answered.
	helloSent, helloServed uint64
}

// New binds an endpoint service for peer id over the given transport and
// registers the Hello handler. The transport's inbound handler is claimed.
func New(e env.Env, id ids.ID, tr transport.Transport) *Endpoint {
	ep := &Endpoint{
		env:   e,
		id:    id,
		idStr: id.String(),
		tr:    tr,
	}
	tr.SetHandler(ep.dispatch)
	ep.Register(helloService, ep.handleHello)
	return ep
}

// Hello resolves the peer ID listening at a transport address. cb fires
// once, with ok=false on timeout; a stopped endpoint silences the waiter
// without firing it.
func (ep *Endpoint) Hello(addr transport.Addr, cb func(peer ids.ID, ok bool)) {
	w := &helloWaiter{addr: addr, cb: cb}
	expire := func() { ep.expire(w) }
	w.timer = ep.env.After(helloTimeout, expire)
	ep.helloWaiters = append(ep.helloWaiters, w)
	ep.helloSent++
	m := message.Acquire()
	m.AddString(ns, elemHelloReq, "1")
	err := ep.sendTo(addr, ids.Nil, helloService, &m.Message)
	m.Release()
	if err != nil {
		// Transport refused outright; fail on the next tick instead of the
		// full timeout.
		w.timer.Cancel()
		w.timer = ep.env.After(0, expire)
	}
}

// expire fails a waiter whose timer fired: it leaves the list first, so the
// endpoint is quiescent again when cb runs.
func (ep *Endpoint) expire(w *helloWaiter) {
	ep.helloWaiters = slices.DeleteFunc(ep.helloWaiters, func(x *helloWaiter) bool { return x == w })
	w.cb(ids.Nil, false)
}

func (ep *Endpoint) handleHello(src ids.ID, msg *message.Message) {
	if msg.GetString(ns, elemHelloReq) != "" {
		ep.helloServed++
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
	// The answered waiters leave the list before any callback runs, so a
	// callback that calls Hello again keeps its new waiter.
	var answered []*helloWaiter
	ep.helloWaiters = slices.DeleteFunc(ep.helloWaiters, func(w *helloWaiter) bool {
		if w.addr != addr {
			return false
		}
		w.timer.Cancel()
		answered = append(answered, w)
		return true
	})
	for _, w := range answered {
		w.cb(src, true)
	}
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

// Quiescent reports whether the endpoint holds no in-flight work: no
// outstanding Hello waiters.
func (ep *Endpoint) Quiescent() bool {
	return len(ep.helloWaiters) == 0
}

// Transport exposes the underlying transport (deployment-level lifecycle
// management re-attaches it on restart).
func (ep *Endpoint) Transport() transport.Transport { return ep.tr }

// Stop quiesces the endpoint's own pending work: outstanding Hello timers
// are canceled (their callbacks never fire). Handlers, routes and the
// transport binding are retained, so the endpoint keeps serving a restarted
// node.
func (ep *Endpoint) Stop() {
	for _, w := range ep.helloWaiters {
		w.timer.Cancel()
	}
	ep.helloWaiters = nil
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
// re-learned from seeds, advertisements and inbound traffic). A route source
// is reset by its owner, with the endpoint (node.Restart).
func (ep *Endpoint) Reset() {
	ep.Stop()
	ep.routes = routeTable{}
}

// RouteSource is a table that already holds the address of some peers — a
// rendezvous' peerview, whose entries' advertisements name them — so the
// endpoint reads those routes from it instead of keeping copies.
type RouteSource interface {
	// Route returns the address the source gives peer, if it gives one.
	Route(peer ids.ID) (transport.Addr, bool)
	// EachRouted calls f once for every peer the source gives an address.
	EachRouted(f func(peer ids.ID))
}

// SetRouteSource installs the source the endpoint reads routes from when its
// own table holds none. The source reports every change to the address it
// gives a peer with SourceMoved.
func (ep *Endpoint) SetRouteSource(src RouteSource) { ep.view = src }

// SourceMoved records that the route source now gives peer the address next
// instead of prev ("" for none). A source's write is the last one written for
// peer, so a stored route goes and the source answers. When the source stops
// giving an address, its last write is stored, unless the table already
// holds a later one: no route is ever evicted.
func (ep *Endpoint) SourceMoved(peer ids.ID, prev, next transport.Addr) {
	switch {
	case next != "":
		ep.routes.del(peer)
	case prev != "":
		if _, stored := ep.routes.get(peer); !stored {
			ep.routes.put(peer, prev)
		}
	}
}

// AddRoute records a direct route to a peer, writing only when the route is
// new or changed: a peer mentioned again costs a lookup and a comparison.
func (ep *Endpoint) AddRoute(peer ids.ID, addr transport.Addr) {
	if peer.Equal(ep.id) || addr == "" {
		return
	}
	setRoute(ep, peer, addr)
}

// LearnRoute records a peer's return route, given as received bytes, only if
// it is new or changed: a peer heard from again costs a comparison.
func (ep *Endpoint) LearnRoute(peer ids.ID, addr []byte) {
	if len(addr) == 0 || peer.Equal(ep.id) {
		return
	}
	setRoute(ep, peer, addr)
}

// setRoute makes addr the route to peer. The table is written only when it
// holds another address and the source does not give this one; when the
// source does, a stored route goes, so that the source answers.
func setRoute[A transport.Addr | []byte](ep *Endpoint, peer ids.ID, addr A) {
	cur, stored := ep.routes.get(peer)
	if stored && string(cur) == string(addr) {
		return
	}
	if ep.view != nil {
		if a, ok := ep.view.Route(peer); ok && string(a) == string(addr) {
			if stored {
				ep.routes.del(peer)
			}
			return
		}
	}
	ep.routes.put(peer, transport.Addr(addr))
}

// RouteTo reports the known route to a peer: the table's, which is the later
// write when the source gives the peer an address too, else the source's.
func (ep *Endpoint) RouteTo(peer ids.ID) (transport.Addr, bool) {
	if a, ok := ep.routes.get(peer); ok {
		return a, true
	}
	if ep.view != nil {
		return ep.view.Route(peer)
	}
	return "", false
}

// KnownPeers returns the peers with direct routes, in unspecified order.
func (ep *Endpoint) KnownPeers() []ids.ID {
	var out []ids.ID
	ep.eachRouted(func(p ids.ID) { out = append(out, p) })
	return out
}

// eachRouted calls f once for every peer with a direct route: the table's
// peers, then the source's peers the table does not hold.
func (ep *Endpoint) eachRouted(f func(ids.ID)) {
	ep.routes.each(func(p ids.ID, _ transport.Addr) { f(p) })
	if ep.view != nil {
		ep.view.EachRouted(func(p ids.ID) {
			if _, stored := ep.routes.get(p); !stored {
				f(p)
			}
		})
	}
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
	addr, ok := ep.RouteTo(dst)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoute, dst.Short())
	}
	return ep.sendTo(addr, dst, service, msg)
}

// sendTo builds the short-lived wire form of one outbound message — the
// caller's elements, aliased, followed by the envelope — and transmits it.
func (ep *Endpoint) sendTo(addr transport.Addr, dst ids.ID, service string, msg *message.Message) error {
	wire := message.Acquire()
	wire.Append(msg)
	wire.AddString(ns, elemSrc, ep.idStr)
	wire.AddScratch(ns, elemDst, dst.AppendString(wire.Scratch()))
	wire.AddString(ns, elemSvc, service)
	wire.AddString(ns, elemSrcAddr, string(ep.tr.Addr()))
	// No peer reads TTL, but its bytes enter every simulated latency
	// (netmodel.SampleLatency): it leaves only with a recapture of the goldens.
	wire.AddString(ns, elemTTL, "8")
	n := ep.slotFor(service).counts()
	n.txMsgs++
	n.txBytes += uint64(wire.Size())
	// Transports copy or serialize inside Send and retain nothing (the
	// transport.Transport contract), so the wire message goes back to the
	// pool as soon as Send returns.
	err := ep.tr.Send(addr, &wire.Message)
	wire.Release()
	return err
}

// ServiceOf reports which service a wire message is addressed to.
// Instrumentation (message-complexity experiments) uses it to classify
// traffic without depending on envelope internals.
func ServiceOf(m *message.Message) string { return m.GetString(ns, elemSvc) }

// envelope is the ep: elements dispatch reads, in place: the slices alias
// the message's payloads.
type envelope struct {
	src, dst, svc, srcAddr []byte
}

func readEnvelope(wire *message.Message) (e envelope) {
	wire.Read(ns,
		message.Field{Name: elemSrc, Into: &e.src},
		message.Field{Name: elemDst, Into: &e.dst},
		message.Field{Name: elemSvc, Into: &e.svc},
		message.Field{Name: elemSrcAddr, Into: &e.srcAddr})
	return e
}

// dispatch demultiplexes an inbound wire message: learn the return route,
// then deliver it to its service, or drop it when it is addressed to another
// peer or to no service here. The envelope is read as bytes, so a message on
// the steady-state path (known service, known return route, or a new one
// that the transport delivered from) allocates nothing here. It is the
// transport's inbound entry point, and enters the node under the env's lock:
// transports such as TCP deliver from their own goroutines.
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
	// Only the envelope's Src and SrcAddr add a route. When SrcAddr is the
	// address the transport delivered from (the sender's own, or the one its
	// TCP connection announced), the route keeps the transport's string.
	if string(e.srcAddr) == string(from) {
		ep.AddRoute(srcID, from)
	} else {
		ep.LearnRoute(srcID, e.srcAddr)
	}
	var h Handler
	s := findSlot(ep.slots, e.svc)
	if s != nil {
		h = s.h
	}
	n := ep.rxCounts(s)
	n.rxMsgs++
	n.rxBytes += uint64(wire.Size())
	// A nil destination addresses "whichever peer listens at this address"
	// — the hello bootstrap, when the sender does not yet know our ID.
	if h == nil || (!dstID.IsNil() && !dstID.Equal(ep.id)) {
		ep.Drops++
		return
	}
	h(srcID, wire)
}
