package endpoint

import (
	"jxta/internal/message"
	"jxta/internal/transport"
)

// hibBracket carries the node-level wake/settle hooks installed around
// inbound delivery, the endpoint's counterpart to the env.After bracket
// (simnet.NodeEnv.SetHibernation). Deliveries and timers are the only two
// ways execution enters a node.
type hibBracket struct {
	wake, settle func()
}

// SetHibernation installs delivery hooks: wake runs before, and settle
// after, every inbound message dispatched to this endpoint.
func (ep *Endpoint) SetHibernation(wake, settle func()) {
	ep.hib = &hibBracket{wake: wake, settle: settle}
}

// receive is the transport's inbound entry point. On a hibernating node it
// brackets dispatch with the node's wake/settle hooks, so the node is marked
// live before any handler runs and can settle again after.
func (ep *Endpoint) receive(from transport.Addr, wire *message.Message) {
	if h := ep.hib; h != nil {
		h.wake()
		ep.dispatch(from, wire)
		h.settle()
		return
	}
	ep.dispatch(from, wire)
}

// Quiescent reports whether the endpoint holds no in-flight work: no pending
// route resolutions, no outstanding Hello waiters.
func (ep *Endpoint) Quiescent() bool {
	return len(ep.pending) == 0 && len(ep.helloWaiters) == 0
}

// Trim returns an emptied pending table to nil, the state New leaves it in.
// The service and route tables need no trimming: on an edge they are
// exact-size slices (tables.go), as small idle as busy.
func (ep *Endpoint) Trim() {
	if len(ep.pending) == 0 {
		ep.pending = nil
	}
}
