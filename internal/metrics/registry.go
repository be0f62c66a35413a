package metrics

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. Inc is a lock-free
// single atomic add: safe from any goroutine, O(ns), and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

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

// NewHistogram returns an empty histogram over the given upper bucket
// bounds (DefBuckets if nil).
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{upper: buckets, buckets: make([]atomic.Uint64, len(buckets)+1)}
}

// emptyHistogram is what a family registered with a nil histogram reads:
// every DefBuckets bucket at zero. Nothing observes into it.
var emptyHistogram = NewHistogram(nil)

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

// family is one named metric. Nothing in it is a stored value: every
// series is read from its collector, the one func field that is set, when
// the registry is encoded.
type family struct {
	name, help string
	labelKey   string // "" for unlabeled
	counter    func() uint64
	gauge      func() float64
	hist       func() *Histogram
	// each enumerates a labeled counter family's children, calling emit
	// once per label value.
	each func(emit func(label string, v uint64))
}

// Registry is a set of collector-backed metric families, encoded in
// Prometheus text exposition format v0.0.4 (WritePrometheus) or as a flat
// map (Snapshot). It holds no counts of its own: each family reads the
// state it describes — a service's plain counter fields, a table's size —
// through its collector at encode time. A node builds one from its
// services when scraped (node.Metrics), and the deployment layer keeps
// one over the simulated fabric and engine. Registration and encoding
// are safe for concurrent use, but the collectors read protocol state and
// must run under whatever discipline that state requires (the live admin
// server builds and encodes under the node's env lock; simulation drivers
// read between scheduler steps).
type Registry struct {
	mu   sync.Mutex
	fams []family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// add registers one family, panicking on a second registration of the
// same name — that is always a programming error, caught in tests.
func (r *Registry) add(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.fams {
		if r.fams[i].name == f.name {
			panic(fmt.Sprintf("metrics: %q registered twice", f.name))
		}
	}
	r.fams = append(r.fams, f)
}

// Counter registers an unlabeled counter the caller increments and
// returns it.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, c.Value)
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// encode/snapshot time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(family{name: name, help: help, counter: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at
// encode/snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(family{name: name, help: help, gauge: fn})
}

// CounterFuncs registers a counter family keyed by labelKey whose
// children are enumerated at encode/snapshot time: each calls emit once
// per label value. The family's cardinality is whatever each emits, so
// the caller bounds it (the endpoint emits only the service names local
// code registered, plus "other").
func (r *Registry) CounterFuncs(name, help, labelKey string, each func(emit func(label string, v uint64))) {
	r.add(family{name: name, help: help, labelKey: labelKey, each: each})
}

// HistogramFunc registers a histogram read from fn at encode/snapshot
// time. A nil histogram reads as an empty one over DefBuckets, so an owner
// can allocate its histogram on the first observation.
func (r *Registry) HistogramFunc(name, help string, fn func() *Histogram) {
	r.add(family{name: name, help: help, hist: fn})
}

// histogram returns the family's histogram, or the empty one.
func (f *family) histogram() *Histogram {
	if h := f.hist(); h != nil {
		return h
	}
	return emptyHistogram
}

func (f *family) promType() string {
	switch {
	case f.gauge != nil:
		return "gauge"
	case f.hist != nil:
		return "histogram"
	default:
		return "counter"
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

// seriesName renders name{key="value"} (or bare name when unlabeled).
func seriesName(name, key, value string) string {
	if key == "" {
		return name
	}
	return name + `{` + key + `="` + escapeLabel(value) + `"}`
}

// families copies the registered families, so that their collectors run
// without the registry's lock held.
func (r *Registry) families() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.fams)
}

// labeled is one child of a labeled family, read for encoding.
type labeled struct {
	label string
	v     uint64
}

// WritePrometheus encodes every family in Prometheus text exposition
// format v0.0.4: a # HELP and # TYPE line per family, then one line per
// series, families sorted by name and children by label value. Every
// collector runs — see the Registry doc for the locking discipline they
// require.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	fams := r.families()
	slices.SortFunc(fams, func(a, b family) int { return cmp.Compare(a.name, b.name) })
	for i := range fams {
		f := &fams[i]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.promType())
		switch {
		case f.each != nil:
			var children []labeled
			f.each(func(label string, v uint64) { children = append(children, labeled{label, v}) })
			slices.SortFunc(children, func(a, b labeled) int { return cmp.Compare(a.label, b.label) })
			for _, ch := range children {
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, f.labelKey, ch.label), ch.v)
			}
		case f.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counter())
		case f.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.gauge()))
		default:
			h := f.histogram()
			cum := uint64(0)
			for i, ub := range h.upper {
				cum += h.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", f.name, formatFloat(ub), cum)
			}
			cum += h.buckets[len(h.upper)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", f.name, formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", f.name, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot flattens every series into a map keyed Prometheus-style
// (name or name{key="value"}; histograms expand to _bucket/_sum/_count
// entries). The same collector locking discipline as WritePrometheus
// applies. Intended for JSON status pages and the jxta-bench per-node
// dumps.
func (r *Registry) Snapshot() map[string]float64 {
	fams := r.families()
	out := make(map[string]float64, 2*len(fams))
	for i := range fams {
		f := &fams[i]
		switch {
		case f.each != nil:
			f.each(func(label string, v uint64) { out[seriesName(f.name, f.labelKey, label)] = float64(v) })
		case f.counter != nil:
			out[f.name] = float64(f.counter())
		case f.gauge != nil:
			out[f.name] = f.gauge()
		default:
			h := f.histogram()
			cum := uint64(0)
			for i, ub := range h.upper {
				cum += h.buckets[i].Load()
				out[f.name+`_bucket{le="`+formatFloat(ub)+`"}`] = float64(cum)
			}
			cum += h.buckets[len(h.upper)].Load()
			out[f.name+`_bucket{le="+Inf"}`] = float64(cum)
			out[f.name+"_sum"] = h.Sum()
			out[f.name+"_count"] = float64(h.Count())
		}
	}
	return out
}
