// Package pipe implements JXTA pipes: the virtual communication channels
// applications use on top of the discovery machinery (the paper's §3.1
// lists peer-to-peer communication among the building blocks the protocols
// provide). Two pipe types are supported:
//
//   - JxtaUnicast: a receiving peer binds an input pipe and publishes the
//     pipe advertisement; a sending peer resolves the advertisement through
//     the LC-DHT discovery protocol — which is exactly the pipe binding
//     protocol's job in JXTA — and then sends messages point to point over
//     the endpoint service.
//   - JxtaPropagate: one-to-many pipes. Any number of peers bind the same
//     propagate pipe; a send fans out through the rendezvous propagation
//     machinery — the sender's rendezvous forwards to its leased clients
//     and walks the message along the ID-ordered peerview, each visited
//     rendezvous forwarding to its own clients — so every bound input pipe
//     in the group receives the payload.
package pipe

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/discovery"
	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/rendezvous"
)

// ServiceName is the endpoint service unicast pipe messages travel on.
const ServiceName = "pipe.msg"

// PropagateService is the endpoint service (and walk target) propagate pipe
// messages travel on.
const PropagateService = "pipe.prop"

// Message elements, namespace "pipe".
const (
	ns         = "pipe"
	elemPipeID = "Id"
	elemData   = "Data"
	elemOrigin = "Origin" // originating peer of a propagate send
	elemPropID = "PID"    // propagation instance ID (dedup)
)

// UnicastType is the pipe type tag for point-to-point pipes.
const UnicastType = "JxtaUnicast"

// PropagateType is the pipe type tag for one-to-many pipes.
const PropagateType = "JxtaPropagate"

// Receiver consumes inbound pipe payloads. It owns data: the stack hands it
// a copy, not a view of the delivered message.
type Receiver func(src ids.ID, data []byte)

// Errors.
var (
	ErrAlreadyBound = errors.New("pipe: pipe already bound on this peer")
	ErrNotResolved  = errors.New("pipe: endpoint not resolved")
	ErrResolve      = errors.New("pipe: could not resolve pipe binder")
	ErrNoRendezvous = errors.New("pipe: no rendezvous lease for propagation")
)

// Service is one peer's pipe service.
type Service struct {
	env   env.Env
	ep    *endpoint.Endpoint
	disco *discovery.Service
	rdv   *rendezvous.Service
	// bound and propSeen are nil until first written (reads of a nil map
	// are already correct).
	bound map[ids.ID]*InputPipe

	// propSeen dedups propagation instances: a propagate message can reach
	// a peer through the up walk, the down walk and the client fan-out.
	propSeen   map[string]bool
	nextPropID uint64
	// stopped gates inbound traffic: a gracefully stopped peer neither
	// delivers to application receivers nor relays propagate fan-out.
	stopped bool

	// m holds the runtime instruments; always non-nil (New pre-instruments,
	// node.New re-instruments with the node's shared registry).
	m *pipeMetrics
}

// New wires the pipe service into a peer's endpoint, discovery and
// rendezvous services.
func New(e env.Env, ep *endpoint.Endpoint, disco *discovery.Service, rdv *rendezvous.Service) *Service {
	s := &Service{env: e, ep: ep, disco: disco, rdv: rdv}
	s.Instrument(metrics.Discard())
	ep.Register(ServiceName, s.receive)
	ep.Register(PropagateService, s.receivePropagate)
	if rdv != nil {
		// Registered in both roles — walk handlers only run on rendezvous,
		// so a peer promoted at runtime relays propagation immediately.
		rdv.SetWalkHandler(PropagateService, s.handlePropagateWalk)
	}
	return s
}

// InputPipe is a bound receiving end.
type InputPipe struct {
	svc  *Service
	Adv  *advertisement.Pipe
	recv Receiver
	// Received counts delivered payloads.
	Received uint64
}

// Bind attaches a receiver to the pipe described by adv and publishes the
// advertisement so senders can resolve this peer. One binder per pipe per
// peer. recv owns the payloads it is called with and may keep them.
func (s *Service) Bind(adv *advertisement.Pipe, recv Receiver) (*InputPipe, error) {
	if adv.Kind == "" {
		adv.Kind = UnicastType
	}
	if _, dup := s.bound[adv.PipeID]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyBound, adv.PipeID.Short())
	}
	in := &InputPipe{svc: s, Adv: adv, recv: recv}
	if s.bound == nil {
		s.bound = make(map[ids.ID]*InputPipe)
	}
	s.bound[adv.PipeID] = in
	s.disco.Publish(adv, 0)
	return in, nil
}

// Close unbinds the pipe. Already-in-flight messages are dropped.
func (in *InputPipe) Close() {
	delete(in.svc.bound, in.Adv.PipeID)
}

// Start resumes inbound delivery after a Stop. The service owns no timers
// — sends are fire-and-forget over the endpoint — so starting is purely a
// gate flip.
func (s *Service) Start() { s.stopped = false }

// Stop halts the pipe service: inbound messages are dropped (no delivery
// to application receivers, no propagate relaying) until the next Start.
// Bindings survive, so a node restarted in place keeps receiving.
func (s *Service) Stop() { s.stopped = true }

// Reset drops every binding and the propagation dedup set for a cold
// restart: applications re-Bind (and re-JoinChannel) after the node comes
// back. Propagation instance IDs keep increasing so pre-restart sends are
// still deduplicated by peers that saw them.
func (s *Service) Reset() {
	s.bound = nil
	s.propSeen = nil
}

// Quiescent reports whether the service is idle — always: it owns no
// timers and sends are fire-and-forget.
func (s *Service) Quiescent() bool { return true }

// OutputPipe is a resolved sending end.
type OutputPipe struct {
	svc    *Service
	PipeID ids.ID
	// Binder is the peer holding the input pipe (unicast pipes only).
	Binder ids.ID
	// Sent counts transmitted payloads.
	Sent uint64

	kind string // UnicastType or PropagateType
}

// Connect resolves the pipe's binder through the discovery protocol and
// hands an OutputPipe to cb. cb fires with err != nil if resolution fails
// within the discovery timeout. Resolution always travels the overlay
// (bypassing the local advertisement cache): a cached advertisement names
// the pipe but not its binder — only the responding publisher does.
func (s *Service) Connect(pipeID ids.ID, cb func(*OutputPipe, error)) {
	err := s.disco.QueryRemote("Pipe", "Id", pipeID.String(),
		func(r discovery.Result) {
			// The responder is the publisher of the pipe advertisement,
			// i.e. the binder; the response installed a route to it.
			cb(&OutputPipe{svc: s, PipeID: pipeID, Binder: r.From}, nil)
		},
		func() { cb(nil, ErrResolve) })
	if err != nil {
		s.env.After(0, func() { cb(nil, err) })
	}
}

// ConnectAdv resolves from an already-known advertisement (skips the
// discovery lookup when the binder's route is known).
func (s *Service) ConnectAdv(adv *advertisement.Pipe, binder ids.ID) *OutputPipe {
	return &OutputPipe{svc: s, PipeID: adv.PipeID, Binder: binder}
}

// ConnectPropagate opens the sending end of a propagate pipe. No resolution
// is needed: fan-out goes through this peer's own rendezvous tier, so the
// pipe ID alone addresses every bound listener in the group.
func (s *Service) ConnectPropagate(adv *advertisement.Pipe) *OutputPipe {
	return &OutputPipe{svc: s, PipeID: adv.PipeID, kind: PropagateType}
}

// Send transmits one payload: point to point to the binder for unicast
// pipes, to every bound listener in the group for propagate pipes.
func (o *OutputPipe) Send(data []byte) error {
	if o.kind == PropagateType {
		if err := o.svc.propagate(o.PipeID, data); err != nil {
			return err
		}
		o.Sent++
		o.svc.m.propSent.Inc()
		return nil
	}
	if o.Binder.IsNil() {
		return ErrNotResolved
	}
	m := message.Acquire()
	m.AddScratch(ns, elemPipeID, o.PipeID.AppendString(m.Scratch()))
	m.Add(ns, elemData, data)
	err := o.svc.ep.Send(o.Binder, ServiceName, &m.Message)
	m.Release()
	if err != nil {
		return err
	}
	o.Sent++
	o.svc.m.unicastSent.Inc()
	return nil
}

// receive dispatches inbound pipe traffic to the bound receiver.
func (s *Service) receive(src ids.ID, m *message.Message) {
	if s.stopped {
		return
	}
	pipeID, err := ids.Parse(m.GetString(ns, elemPipeID))
	if err != nil {
		return
	}
	in, ok := s.bound[pipeID]
	if !ok {
		return // unbound or closed: silently dropped, like JXTA
	}
	data, ok := m.Get(ns, elemData)
	if !ok {
		return
	}
	in.deliver(src, data)
}

// deliver counts one payload and hands it to the receiver. This is where the
// stack ends and the application begins, so it is where the payload is
// copied: data is a view of a delivered message, on loan from the transport
// (or of the sender's own buffer, on a local loopback), and the receiver may
// keep what it gets.
func (in *InputPipe) deliver(src ids.ID, data []byte) {
	in.Received++
	in.svc.m.delivered.Inc()
	if in.recv != nil {
		in.recv(src, append([]byte(nil), data...))
	}
}

// --- Propagation: one-to-many fan-out over the rendezvous machinery ---

// propSeenLimit bounds the dedup set; propagation instances are short-lived
// so a coarse reset is fine (mirrors the rendezvous walker's loop guard).
const propSeenLimit = 8192

// markProp records a propagation instance, reporting whether it was new.
func (s *Service) markProp(pid string) bool {
	if pid == "" {
		return false
	}
	if s.propSeen[pid] {
		s.m.propDropped.Inc()
		return false
	}
	if s.propSeen == nil || len(s.propSeen) >= propSeenLimit {
		s.propSeen = make(map[string]bool)
	}
	s.propSeen[pid] = true
	return true
}

// propagate originates a one-to-many send: deliver locally, then hand the
// message to the rendezvous tier for group-wide fan-out.
func (s *Service) propagate(pipeID ids.ID, data []byte) error {
	s.nextPropID++
	pid := s.ep.ID().Short() + "-" + strconv.FormatUint(s.nextPropID, 10)
	s.markProp(pid) // echoes of our own send are dropped
	m := message.Acquire()
	defer m.Release() // every send below copies before it returns
	m.AddScratch(ns, elemPipeID, pipeID.AppendString(m.Scratch()))
	m.AddString(ns, elemOrigin, s.ep.IDString())
	m.AddString(ns, elemPropID, pid)
	m.Add(ns, elemData, data)
	if s.rdv == nil {
		return ErrNoRendezvous
	}
	if s.rdv.IsRendezvous() {
		// Local loopback: propagate pipes deliver to the sender's own
		// input pipe too, like JXTA's propagate pipes in one peer group.
		s.deliverLocal(s.ep.ID(), pipeID, data)
		s.fanOut(s.ep.ID(), &m.Message)
		s.startPropagationWalks(&m.Message)
		return nil
	}
	rdvID, ok := s.rdv.ConnectedRdv()
	if !ok {
		return ErrNoRendezvous
	}
	if err := s.ep.Send(rdvID, PropagateService, &m.Message); err != nil {
		return err
	}
	// Loopback only after the group send was accepted, so a failed Send
	// never half-delivers.
	s.deliverLocal(s.ep.ID(), pipeID, data)
	return nil
}

// receivePropagate handles propagate traffic arriving over the endpoint:
// at an edge this is the final delivery; at a rendezvous it is the first
// hop of the fan-out (deliver locally, forward to clients, start walks).
func (s *Service) receivePropagate(src ids.ID, m *message.Message) {
	if s.stopped {
		return
	}
	pipeID, origin, data, ok := s.decodeProp(m)
	if !ok {
		return
	}
	s.deliverLocal(origin, pipeID, data)
	if s.rdv != nil && s.rdv.IsRendezvous() {
		// Rebuild a clean propagate message: m is the inbound wire message,
		// still carrying its endpoint envelope; re-sending it as-is would
		// confuse the receivers' envelope demux with stale Src/Dst elements.
		fwd := message.Acquire()
		for _, name := range [...]string{elemPipeID, elemOrigin, elemPropID} {
			b, _ := m.Get(ns, name)
			fwd.Add(ns, name, b)
		}
		fwd.Add(ns, elemData, data)
		s.fanOut(origin, &fwd.Message)
		s.startPropagationWalks(&fwd.Message)
		fwd.Release()
	}
}

// handlePropagateWalk consumes a walked propagate message at each visited
// rendezvous: deliver locally, forward to this rendezvous' clients, and let
// the walk continue (return false) so the whole peerview is covered.
func (s *Service) handlePropagateWalk(_ ids.ID, _ rendezvous.Direction, body *message.Message) bool {
	if s.stopped {
		return false
	}
	pipeID, origin, data, ok := s.decodeProp(body)
	if !ok {
		return false
	}
	s.deliverLocal(origin, pipeID, data)
	s.fanOut(origin, body)
	return false
}

// decodeProp validates a propagate message and applies the dedup guard.
func (s *Service) decodeProp(m *message.Message) (pipeID, origin ids.ID, data []byte, ok bool) {
	if !s.markProp(m.GetString(ns, elemPropID)) {
		return ids.Nil, ids.Nil, nil, false
	}
	pipeID, err := ids.Parse(m.GetString(ns, elemPipeID))
	if err != nil {
		return ids.Nil, ids.Nil, nil, false
	}
	origin, err = ids.Parse(m.GetString(ns, elemOrigin))
	if err != nil {
		return ids.Nil, ids.Nil, nil, false
	}
	data, dok := m.Get(ns, elemData)
	if !dok {
		return ids.Nil, ids.Nil, nil, false
	}
	return pipeID, origin, data, true
}

// deliverLocal hands a propagate payload to this peer's bound input pipe,
// if any (unbound pipes drop silently, like unicast receive).
func (s *Service) deliverLocal(origin, pipeID ids.ID, data []byte) {
	if in, ok := s.bound[pipeID]; ok {
		in.deliver(origin, data)
	}
}

// fanOut forwards a propagate message to every leased client of this
// rendezvous except the origin (which already delivered locally).
func (s *Service) fanOut(origin ids.ID, m *message.Message) {
	for _, client := range s.rdv.Clients() {
		if client.Equal(origin) {
			continue
		}
		if s.ep.Send(client, PropagateService, m) == nil {
			s.m.fanout.Inc()
		}
	}
}

// startPropagationWalks launches the up and down peerview walks so every
// rendezvous — and through fanOut every edge — sees the message once.
func (s *Service) startPropagationWalks(m *message.Message) {
	ttl := s.rdv.PeerView().Size() + 1
	s.rdv.Walk(rendezvous.Up, ttl, PropagateService, m)
	s.rdv.Walk(rendezvous.Down, ttl, PropagateService, m)
}

// NewPipeAdv mints a pipe advertisement with a deterministic ID derived
// from the owner and name.
func NewPipeAdv(owner ids.ID, name string) *advertisement.Pipe {
	return &advertisement.Pipe{
		PipeID: ids.FromName(ids.KindPipe, owner.String()+"/"+name),
		Name:   name,
		Kind:   UnicastType,
	}
}

// NewPropagateAdv mints a propagate pipe advertisement. The ID derives from
// the name alone — every peer binding the same name joins the same group
// channel, without needing to know who else is bound.
func NewPropagateAdv(name string) *advertisement.Pipe {
	return &advertisement.Pipe{
		PipeID: ids.FromName(ids.KindPipe, "propagate/"+name),
		Name:   name,
		Kind:   PropagateType,
	}
}

// ResolveTimeout is how long Connect effectively waits (the discovery
// resolver timeout governs it); exposed for documentation.
const ResolveTimeout = 30 * time.Second
