// Package metrics is the stack's measurement layer, covering both the
// paper's offline experiment analysis and live production observability.
//
// The offline half — Series, EventLog, Samples — is the plumbing the
// experiment drivers use to reproduce the paper's figures: time series
// (peerview size over time, Figure 3 left / 4 left), membership event
// logs with first-seen numbering (Figure 3 right), and latency sample
// sets with summary statistics (Figure 4 right).
//
// The runtime half is a Registry of named Counter and Histogram
// instruments with a single-label CounterVec and collector-backed Func
// instruments. Increments and observations are lock-free atomics with
// zero allocations after registration (see BenchmarkCounterInc), so
// every protocol service carries its instruments unconditionally —
// instrumentation is a pure observer and the determinism goldens hold
// byte-identical with it enabled. The Registry encodes to Prometheus
// text exposition format v0.0.4 (WritePrometheus) for the jxta-node
// admin endpoint and to a flat map (Snapshot) for /statusz and the
// jxta-bench per-node JSON dumps. Trace is the companion protocol
// event ring: rare state transitions (promotions, failovers, merges,
// lease changes) timestamped with the node's — virtual or wall — clock.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jxta/internal/ids"
)

// Series is an append-only time series of (time, value) points.
type Series struct {
	Times  []time.Duration
	Values []float64
}

// Add appends a point.
func (s *Series) Add(t time.Duration, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// MeanAfter averages the values at times >= t (the steady-state plateau of
// a peerview experiment).
func (s *Series) MeanAfter(t time.Duration) float64 {
	sum, n := 0.0, 0
	for i, v := range s.Values {
		if s.Times[i] >= t {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CSV renders the series as "minutes,value" lines.
func (s *Series) CSV() string {
	var sb strings.Builder
	for i := range s.Times {
		fmt.Fprintf(&sb, "%.2f,%g\n", s.Times[i].Minutes(), s.Values[i])
	}
	return sb.String()
}

// EventKind tags membership events.
type EventKind int

// Membership event kinds (mirrors peerview's, kept separate so metrics does
// not import protocol packages).
const (
	EventAdd EventKind = iota
	EventRemove
)

// Event is one membership change, with the per-peer number assigned at its
// first addition (Figure 3 right's y axis).
type Event struct {
	At      time.Duration
	Kind    EventKind
	Peer    ids.ID
	PeerNum int
}

// EventLog records add/remove events, numbering peers in first-seen order
// starting from 1, exactly like the paper's Figure 3 (right).
type EventLog struct {
	Events []Event
	nums   map[ids.ID]int
}

// NewEventLog builds an empty log.
func NewEventLog() *EventLog { return &EventLog{nums: make(map[ids.ID]int)} }

// Record appends an event, assigning the peer number on first sight.
func (l *EventLog) Record(at time.Duration, kind EventKind, peer ids.ID) {
	num, ok := l.nums[peer]
	if !ok {
		num = len(l.nums) + 1
		l.nums[peer] = num
	}
	l.Events = append(l.Events, Event{At: at, Kind: kind, Peer: peer, PeerNum: num})
}

// DistinctPeers returns how many distinct peers have been seen.
func (l *EventLog) DistinctPeers() int { return len(l.nums) }

// Counts returns the number of add and remove events.
func (l *EventLog) Counts() (adds, removes int) {
	for _, e := range l.Events {
		if e.Kind == EventAdd {
			adds++
		} else {
			removes++
		}
	}
	return adds, removes
}

// FirstRemoveAt returns when the first remove event occurred (0, false if
// none) — the start of the paper's phase 2.
func (l *EventLog) FirstRemoveAt() (time.Duration, bool) {
	for _, e := range l.Events {
		if e.Kind == EventRemove {
			return e.At, true
		}
	}
	return 0, false
}

// LastAddAt returns when the last distinct peer was first added (the
// "117 minutes" observation for r=580).
func (l *EventLog) LastAddAt() (time.Duration, bool) {
	seen := map[ids.ID]bool{}
	var last time.Duration
	found := false
	for _, e := range l.Events {
		if e.Kind == EventAdd && !seen[e.Peer] {
			seen[e.Peer] = true
			last = e.At
			found = true
		}
	}
	return last, found
}

// Samples accumulates scalar measurements (per-query latencies).
type Samples struct {
	data   []float64
	sorted bool
}

// Add appends a sample.
func (s *Samples) Add(v float64) {
	s.data = append(s.data, v)
	s.sorted = false
}

// AddDuration appends a duration sample in milliseconds.
func (s *Samples) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the sample count.
func (s *Samples) N() int { return len(s.data) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Samples) Mean() float64 {
	if len(s.data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
}

func (s *Samples) sortIfNeeded() {
	if !s.sorted {
		sort.Float64s(s.data)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation.
func (s *Samples) Quantile(q float64) float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.sortIfNeeded()
	if q <= 0 {
		return s.data[0]
	}
	if q >= 1 {
		return s.data[len(s.data)-1]
	}
	pos := q * float64(len(s.data)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.data) {
		return s.data[lo]
	}
	return s.data[lo]*(1-frac) + s.data[lo+1]*frac
}
