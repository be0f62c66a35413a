package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument families a Registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindHistogram
	// KindCounterFunc and KindGaugeFunc are collector-backed instruments:
	// the value is computed by a callback at encode/snapshot time instead
	// of being stored. They bridge pre-existing plain counter structs
	// (transport.Stats, discovery.Stats) and size gauges
	// (view size, roster, cache records) into the registry with zero cost
	// on the mutating path.
	KindCounterFunc
	KindGaugeFunc
)

// MaxCardinality caps the number of distinct label values a single Vec
// family will materialize. The first MaxCardinality values get their own
// child series; every later value shares the overflow child, labeled
// OverflowLabel. An unbounded label (say, a peer ID in a million-peer
// overlay) therefore degrades gracefully instead of growing the registry
// without bound.
const MaxCardinality = 256

// OverflowLabel is the label value of the shared overflow child a Vec
// returns once MaxCardinality distinct values exist.
const OverflowLabel = "_overflow"

// Counter is a monotonically increasing counter. Inc and Add are
// lock-free single atomic adds: safe from any goroutine, O(ns), and
// allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefBuckets are the default histogram boundaries, in seconds — spanning
// sub-millisecond LAN round trips through the multi-second WAN timeouts
// the netmodel simulates.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram counts observations into cumulative buckets, Prometheus
// style. Observe is lock-free: one atomic add on the owning bucket, one
// on the count, and a CAS loop folding the observation into the float
// sum. No allocations after construction.
type Histogram struct {
	upper   []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// child is one labeled series inside a family.
type child struct {
	label string // label value; "" on unlabeled families
	c     Counter
	h     *Histogram
	cf    func() uint64
	gf    func() float64
}

// family is one named metric with all its labeled children.
type family struct {
	name     string
	help     string
	kind     Kind
	labelKey string // "" for unlabeled
	buckets  []float64

	mu       sync.Mutex
	children []*child
	byLabel  map[string]*child
}

func (f *family) getOrAdd(label string) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.byLabel[label]; ok {
		return ch
	}
	if len(f.children) >= MaxCardinality {
		if ch, ok := f.byLabel[OverflowLabel]; ok {
			return ch
		}
		label = OverflowLabel
	}
	ch := &child{label: label}
	if f.kind == KindHistogram {
		ch.h = &Histogram{upper: f.buckets, buckets: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	f.children = append(f.children, ch)
	f.byLabel[label] = ch
	return ch
}

// Registry holds a node's instruments and encodes them in Prometheus
// text exposition format v0.0.4. Registration takes a lock; the
// instruments handed back operate lock-free afterwards. A Registry is
// safe for concurrent use, including encoding while instruments are
// being updated — except for Func instruments, whose callbacks read
// protocol state and must be sampled under whatever discipline that
// state requires (the live admin server encodes under the node's env
// lock; simulation drivers read between scheduler steps).
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	fams   []*family
	// discard marks the process-wide pre-bind sink: Func registrations are
	// dropped on it (see Discard).
	discard bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// discard is the process-wide pre-bind registry behind Discard.
var discard = &Registry{byName: make(map[string]*family), discard: true}

// Discard returns the process-wide pre-bind registry: a write-only sink
// service constructors instrument against so their counter fields are
// always valid, before the node assembly re-instruments them onto the
// node's own registry. Sharing one sink instead of allocating a throwaway
// Registry per service per peer matters at population scale — seven
// registries per node otherwise. Never encode or snapshot it: its real
// counters aggregate every uninstrumented component in the process. Func
// registrations are dropped outright — their closures capture protocol
// state, and retaining them here would pin every service (and through it
// every overlay) ever constructed in the process.
func Discard() *Registry { return discard }

// register creates or fetches a family, panicking on a kind/label
// mismatch — that is always a programming error, caught in tests.
func (r *Registry) register(name, help string, kind Kind, labelKey string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || f.labelKey != labelKey {
			panic(fmt.Sprintf("metrics: conflicting registration of %q", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labelKey: labelKey,
		buckets: buckets, byLabel: make(map[string]*child),
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &r.register(name, help, KindCounter, "", nil).getOrAdd("").c
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// upper bucket bounds (DefBuckets if nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, KindHistogram, "", buckets).getOrAdd("").h
}

// CounterFunc registers a collector-backed counter whose value is read
// from fn at encode/snapshot time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r.discard {
		return
	}
	r.register(name, help, KindCounterFunc, "", nil).getOrAdd("").cf = fn
}

// GaugeFunc registers a collector-backed gauge whose value is read from
// fn at encode/snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r.discard {
		return
	}
	r.register(name, help, KindGaugeFunc, "", nil).getOrAdd("").gf = fn
}

// CounterFuncWith registers a collector-backed counter child under a
// labeled family — one callback per label value (the sharded engine's
// per-shard event counters use this). Same-name registrations must agree
// on labelKey; re-registering a label value replaces its callback.
func (r *Registry) CounterFuncWith(name, help, labelKey, labelValue string, fn func() uint64) {
	if r.discard {
		return
	}
	r.register(name, help, KindCounterFunc, labelKey, nil).getOrAdd(labelValue).cf = fn
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a counter family keyed by labelKey.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labelKey, nil)}
}

// With returns the child counter for the given label value, creating it
// on first use. The lookup takes the family lock — hot paths should
// cache the returned *Counter (per-service caches in the endpoint do
// exactly this) so steady-state increments stay lock-free.
func (v *CounterVec) With(value string) *Counter { return &v.f.getOrAdd(value).c }

// snapshotFamilies copies the family list and each family's children so
// encoding can walk them without holding registry locks.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	ch := make([]*child, len(f.children))
	copy(ch, f.children)
	f.mu.Unlock()
	sort.Slice(ch, func(i, j int) bool { return ch[i].label < ch[j].label })
	return ch
}

func promType(k Kind) string {
	switch k {
	case KindCounter, KindCounterFunc:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders name{key="value"} (or bare name when unlabeled),
// with extra an optional additional label (used for histogram le).
func seriesName(name, key, value string) string {
	if key == "" {
		return name
	}
	return name + `{` + key + `="` + escapeLabel(value) + `"}`
}

// WritePrometheus encodes every instrument in Prometheus text exposition
// format v0.0.4: a # HELP and # TYPE line per family, then one line per
// series, families sorted by name and children by label value. Func
// instruments invoke their callbacks — see the Registry doc for the
// locking discipline they require.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshotFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, promType(f.kind))
		for _, ch := range f.snapshotChildren() {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, f.labelKey, ch.label), ch.c.Value())
			case KindCounterFunc:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, f.labelKey, ch.label), ch.cf())
			case KindGaugeFunc:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, f.labelKey, ch.label), formatFloat(ch.gf()))
			case KindHistogram:
				cum := uint64(0)
				for i, ub := range ch.h.upper {
					cum += ch.h.buckets[i].Load()
					fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", f.name, formatFloat(ub), cum)
				}
				cum += ch.h.buckets[len(ch.h.upper)].Load()
				fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
				fmt.Fprintf(&b, "%s_sum %s\n", f.name, formatFloat(ch.h.Sum()))
				fmt.Fprintf(&b, "%s_count %d\n", f.name, ch.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot flattens every series into a map keyed Prometheus-style
// (name or name{key="value"}; histograms expand to _bucket/_sum/_count
// entries). The same Func-instrument locking discipline as
// WritePrometheus applies. Intended for JSON status pages and the
// jxta-bench per-node dumps.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshotFamilies() {
		for _, ch := range f.snapshotChildren() {
			key := seriesName(f.name, f.labelKey, ch.label)
			switch f.kind {
			case KindCounter:
				out[key] = float64(ch.c.Value())
			case KindCounterFunc:
				out[key] = float64(ch.cf())
			case KindGaugeFunc:
				out[key] = ch.gf()
			case KindHistogram:
				cum := uint64(0)
				for i, ub := range ch.h.upper {
					cum += ch.h.buckets[i].Load()
					out[f.name+`_bucket{le="`+formatFloat(ub)+`"}`] = float64(cum)
				}
				cum += ch.h.buckets[len(ch.h.upper)].Load()
				out[f.name+`_bucket{le="+Inf"}`] = float64(cum)
				out[f.name+"_sum"] = ch.h.Sum()
				out[f.name+"_count"] = float64(ch.h.Count())
			}
		}
	}
	return out
}
