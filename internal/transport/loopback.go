package transport

import (
	"fmt"
	"sync"

	"jxta/internal/message"
)

// Hub is an in-process loopback fabric for unit tests: zero latency,
// synchronous handler invocation on the sender's goroutine, thread-safe
// registry. Send copies the message before handing it over and empties the
// copy when the handler returns — the Transport copy contract and the Handler
// loan rule, so a unit test over the hub sees what the real transports do.
type Hub struct {
	mu    sync.Mutex
	nodes map[Addr]*Loop
}

// NewHub creates an empty loopback fabric.
func NewHub() *Hub { return &Hub{nodes: make(map[Addr]*Loop)} }

// Loop is a loopback endpoint.
type Loop struct {
	hub     *Hub
	addr    Addr
	mu      sync.Mutex
	handler Handler
	closed  bool
}

var _ Transport = (*Loop)(nil)

// Attach registers a new endpoint named loop://<name>.
func (h *Hub) Attach(name string) (*Loop, error) {
	addr := Addr("loop://" + name)
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.nodes[addr]; dup {
		return nil, fmt.Errorf("transport: duplicate loopback endpoint %s", addr)
	}
	l := &Loop{hub: h, addr: addr}
	h.nodes[addr] = l
	return l, nil
}

// Addr implements Transport.
func (l *Loop) Addr() Addr { return l.addr }

// SetHandler implements Transport.
func (l *Loop) SetHandler(h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handler = h
}

// Close implements Transport.
func (l *Loop) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.hub.mu.Lock()
	delete(l.hub.nodes, l.addr)
	l.hub.mu.Unlock()
	return nil
}

// Send implements Transport. Delivery is synchronous: the destination
// handler runs before Send returns, on the caller's goroutine. Tests relying
// on ordering should account for this reentrancy.
func (l *Loop) Send(to Addr, msg *message.Message) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	l.hub.mu.Lock()
	dst, ok := l.hub.nodes[to]
	l.hub.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	dst.mu.Lock()
	h := dst.handler
	dst.mu.Unlock()
	if h != nil {
		var rec message.Loan
		rec.Fill(msg)
		h(l.addr, &rec.Message)
		rec.End(loanCheck) // empty from here on, whoever kept the pointer
	}
	return nil
}
