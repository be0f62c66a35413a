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
	cap int
	seq uint64
	buf []TraceEvent
	// start indexes the oldest event once the ring has wrapped.
	start int
}

// DefaultTraceCapacity is the ring size node.New uses: enough to hold a
// node's full lease/failover/merge history in every experiment we run,
// at ~100 bytes per slot.
const DefaultTraceCapacity = 256

// NewTrace returns a ring holding the last capacity events
// (DefaultTraceCapacity if capacity <= 0). The ring storage is allocated
// lazily on the first Record: protocol transitions are rare, so most
// peers in a large quiet population never pay for the buffer at all.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{cap: capacity}
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
	if len(t.buf) < t.cap {
		if t.buf == nil {
			t.buf = make([]TraceEvent, 0, t.cap)
		}
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
