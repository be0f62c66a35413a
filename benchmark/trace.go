package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/message"
	"jxta/internal/transport"
)

// span is one call the benchmark made across a layer boundary. Spans are
// recorded from the benchmark's own files only; spans inside the program
// are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	// Op ties together the spans of one operation (one publish, one lookup).
	Op      int   `json:"op,omitempty"`
	StartNs int64 `json:"start_ns"` // since the tracer was made
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the code path without the cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// op records a finished client-side operation as one span.
func (t *tracer) op(name string, parent, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, StartNs: s, EndNs: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// maxSpansWritten bounds the span file: a live run records one span per
// operation (over a hundred thousand), of which the file keeps the first.
const maxSpansWritten = 20000

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Machine      machine            `json:"machine"`
	Notes        []string           `json:"notes"`
	ReplayWallS  map[string]float64 `json:"replay_wall_s"`
	Latency      map[string]float64 `json:"latency_ms"`
	OkShares     map[string]float64 `json:"ok_share_by_phase"`
	PerLayer     map[string]float64 `json:"per_layer"`
	SpansTotal   int                `json:"spans_total"`
	SpansWritten int                `json:"spans_written"`
	Spans        []span             `json:"spans"`
}

func (t *tracer) write(dir string, f *traceFile) (string, error) {
	f.SpansTotal = len(t.spans)
	f.Spans = t.spans
	if len(f.Spans) > maxSpansWritten {
		f.Spans = f.Spans[:maxSpansWritten]
	}
	f.SpansWritten = len(f.Spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// tap observes messages entering the transport on a traced run: it counts
// them by destination service and keeps a uniform sample of them (a
// reservoir, drawn from the run's seed) as the corpus the layer kernels are
// timed on. Safe for concurrent use (live transports send from several
// goroutines).
type tap struct {
	mu        sync.Mutex
	rng       *rand.Rand
	seen      uint64
	bytes     uint64
	corpus    []*message.Message
	bySvc     map[string]*svcCount
	referrals uint64 // advertisements carried by peerview referral messages
	// pairSeen holds the unordered address pairs that exchanged a message:
	// on the TCP transport, the connections in use.
	pairSeen map[[2]transport.Addr]struct{}
}

type svcCount struct{ msgs, bytes uint64 }

const corpusCap = 4096

func newTap(seed int64) *tap {
	return &tap{rng: rand.New(rand.NewSource(seed)), bySvc: make(map[string]*svcCount), pairSeen: make(map[[2]transport.Addr]struct{})}
}

// observePair is observe for transports whose connections are worth
// counting.
func (tp *tap) observePair(from, to transport.Addr, m *message.Message) {
	if to < from {
		from, to = to, from
	}
	tp.mu.Lock()
	tp.pairSeen[[2]transport.Addr{from, to}] = struct{}{}
	tp.mu.Unlock()
	tp.observe(m)
}

func (tp *tap) pairs() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return len(tp.pairSeen)
}

func (tp *tap) onSend(_, _ transport.Addr, m *message.Message) { tp.observe(m) }

func (tp *tap) observe(m *message.Message) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.seen++
	size := uint64(m.Size())
	tp.bytes += size
	svc := endpoint.ServiceOf(m)
	c := tp.bySvc[svc]
	if c == nil {
		c = &svcCount{}
		tp.bySvc[svc] = c
	}
	c.msgs++
	c.bytes += size
	if svc == "rdv.peerview" && m.GetString("pv", "Type") == "referral" {
		for _, el := range m.Elements() {
			if el.Namespace == "pv" && el.Name == "RdvAdv" {
				tp.referrals++
			}
		}
	}
	// The message belongs to the sender only until Send returns: clone.
	if len(tp.corpus) < corpusCap {
		tp.corpus = append(tp.corpus, m.Clone())
	} else if j := tp.rng.Int63n(int64(tp.seen)); j < corpusCap {
		tp.corpus[j] = m.Clone()
	}
}

func (tp *tap) svc(name string) svcCount {
	if c := tp.bySvc[name]; c != nil {
		return *c
	}
	return svcCount{}
}
