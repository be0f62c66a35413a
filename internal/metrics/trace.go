package metrics

import (
	"sync"
	"time"
)

// TraceEvent is one protocol-level event: a promotion, failover, merge,
// lease transition or similar rare state change. At carries the node's
// clock at the time of the event as an offset from the env epoch —
// virtual time in simulation, process uptime on a live node — so traces
// line up with experiment timelines.
type TraceEvent struct {
	// Seq is a per-trace monotonic sequence number; it survives ring
	// eviction, so gaps reveal how many events were dropped.
	Seq uint64 `json:"seq"`
	// At is the node-clock timestamp of the event (offset from epoch).
	At time.Duration `json:"at"`
	// Type names the transition, e.g. "lease-acquired", "failover",
	// "promotion", "island-merge".
	Type string `json:"type"`
	// Detail is a short human-readable elaboration (peer short-IDs etc.).
	Detail string `json:"detail"`
}

// Trace is a fixed-capacity ring buffer of TraceEvents. Recording is
// mutex-protected — these are rare protocol transitions, not hot-path
// traffic — and a nil *Trace is a valid no-op sink, so uninstrumented
// components can record unconditionally.
type Trace struct {
	mu  sync.Mutex
	seq uint64
	buf []TraceEvent
	cap int32
	// start indexes the oldest event once the ring has wrapped.
	start int32
	// first backs buf until a second event arrives: nearly every peer
	// records one event (an edge's first lease), and many never a second.
	first [1]TraceEvent
}

// DefaultTraceCapacity is the ring size the rendezvous service uses: enough
// to hold a peer's full lease/failover/merge history in every experiment we
// run. A slot is a 48-byte TraceEvent.
const DefaultTraceCapacity = 256

// NewTrace returns a ring holding the last capacity events
// (DefaultTraceCapacity if capacity <= 0). The ring storage grows with the
// events recorded, up to capacity: protocol transitions are rare, and an
// edge whose only event is its first lease pays for the one slot the Trace
// holds inline.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Trace{cap: int32(capacity)}
	t.buf = t.first[:0]
	return t
}

// Record appends one event, evicting the oldest when full. Safe on a
// nil receiver (drops the event).
func (t *Trace) Record(at time.Duration, typ, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev := TraceEvent{Seq: t.seq, At: at, Type: typ, Detail: detail}
	if len(t.buf) < int(t.cap) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.start] = ev
		t.start = (t.start + 1) % t.cap
	}
	t.mu.Unlock()
}

// Events returns a copy of the buffered events, oldest first. Safe on a
// nil receiver (returns nil).
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// Len reports the number of buffered events. Safe on a nil receiver.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}
