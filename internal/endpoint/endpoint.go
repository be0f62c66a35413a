// Package endpoint implements the JXTA endpoint service, the bottom of the
// JXTA stack (Figure 1 of the paper): it owns the peer's transport and
// demultiplexes inbound messages to the services above (resolver,
// rendezvous, discovery).
//
// Routing model: every peer keeps a route table peerID -> transport address.
// Routes are learned from advertisements (rendezvous advertisements carry
// addresses) and from inbound traffic (each envelope carries the sender's
// address, which is the only route a message can add or change). A peer
// sends only along its own direct routes: there is no route resolution
// protocol and no relaying, so a message addressed to another peer is
// dropped.
package endpoint

import (
	"errors"
	"fmt"
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

// helloWaiter is a pending Hello resolution. cancel silences the waiter
// (timer canceled, callback never fired) when the endpoint stops.
type helloWaiter struct {
	addr   transport.Addr
	cb     func(peer ids.ID)
	cancel func()
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
	// addrStr caches the transport address string stamped on every send.
	addrStr string
	// slots and routes are the service and route tables (tables.go).
	slots        []slot
	routes       routeTable
	helloWaiters []helloWaiter

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
		env:     e,
		id:      id,
		idStr:   id.String(),
		tr:      tr,
		addrStr: string(tr.Addr()),
	}
	tr.SetHandler(ep.dispatch)
	ep.Register(helloService, ep.handleHello)
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
	ep.helloSent++
	m := message.Acquire()
	m.AddString(ns, elemHelloReq, "1")
	err := ep.sendTo(addr, ids.Nil, helloService, &m.Message)
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
		w.cancel()
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
	wire.AddString(ns, elemSrcAddr, ep.addrStr)
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
// the steady-state path (known service, known return route) allocates
// nothing here. It is the transport's inbound entry point, and enters the
// node under the env's lock: transports such as TCP deliver from their own
// goroutines.
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
