// Package transport moves JXTA messages between peers. Two fabrics share
// one interface:
//
//   - Sim: the simulated Grid'5000 network (deterministic, virtual time,
//     per-receiver FIFO service queues) used by every experiment and by the
//     unit tests;
//   - TCP: a real wire transport (length-prefixed frames over TCP) proving
//     the protocol stack runs outside the simulator.
package transport

import (
	"errors"

	"jxta/internal/message"
)

// Addr names a transport endpoint. Formats:
//
//	sim://<site>/<name>   simulated node
//	tcp://<host>:<port>   TCP listener
type Addr string

// Handler consumes an inbound message. The owning node must ensure the
// handler runs serialized with its other protocol callbacks (the simulator
// guarantees this; the endpoint takes the node lock of a TCP node's env).
//
// msg is on loan for the duration of the call, on every transport: the
// message, its element slice and the namespaces, names and payloads they
// point at are the transport's again as soon as the handler returns (Sim
// recycles the record Send copied into, TCP decodes the next frame over it). Whoever keeps any of it past the call copies what it keeps
// (message.Clone, append, string conversion).
type Handler func(src Addr, msg *message.Message)

// Transport is a bound endpoint able to send and receive messages.
type Transport interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits a message. Delivery is best-effort and asynchronous;
	// an error means the message could not even be handed to the network.
	//
	// Send is the copy boundary between peers, and the only one: it copies
	// or serializes msg before it returns (Sim copies into the record the
	// receiver is lent, TCP marshals into a frame) and never retains msg
	// or its element bytes afterwards, so msg stays the caller's.
	// The caller may reset, refill and reuse msg and overwrite its payload
	// buffers as soon as Send returns; it must not do so concurrently with
	// the call. An implementation that wraps another may observe msg during
	// Send but must copy whatever it keeps.
	Send(to Addr, msg *message.Message) error
	// SetHandler installs the inbound message consumer.
	SetHandler(h Handler)
	// Close releases the endpoint. Further Sends fail; queued inbound
	// deliveries are dropped.
	Close() error
}

// Errors shared by implementations.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownPeer = errors.New("transport: unknown destination")
)
