package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jxta_test_ops_total", "ops so far")
	c.Add(7)
	v := r.CounterVec("jxta_test_msgs_total", "messages by service", "service")
	v.With("resolver").Add(2)
	v.With("pipe.msg").Inc()
	r.GaugeFunc("jxta_test_size", "live size", func() float64 { return 2.5 })
	r.CounterFunc("jxta_test_raw_total", "bridged counter", func() uint64 { return 9 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP jxta_test_msgs_total messages by service
# TYPE jxta_test_msgs_total counter
jxta_test_msgs_total{service="pipe.msg"} 1
jxta_test_msgs_total{service="resolver"} 2
# HELP jxta_test_ops_total ops so far
# TYPE jxta_test_ops_total counter
jxta_test_ops_total 7
# HELP jxta_test_raw_total bridged counter
# TYPE jxta_test_raw_total counter
jxta_test_raw_total 9
# HELP jxta_test_size live size
# TYPE jxta_test_size gauge
jxta_test_size 2.5
`
	if got != want {
		t.Fatalf("encoding mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramEncodingAndBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("jxta_test_latency_seconds", "latency", []float64{0.1, 1, 10})
	// Boundary semantics: le is inclusive, so 0.1 lands in the first
	// bucket and 0.100001 in the second.
	for _, v := range []float64{0.05, 0.1, 0.100001, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-106.250001) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP jxta_test_latency_seconds latency
# TYPE jxta_test_latency_seconds histogram
jxta_test_latency_seconds_bucket{le="0.1"} 2
jxta_test_latency_seconds_bucket{le="1"} 4
jxta_test_latency_seconds_bucket{le="10"} 5
jxta_test_latency_seconds_bucket{le="+Inf"} 6
jxta_test_latency_seconds_sum 106.250001
jxta_test_latency_seconds_count 6
`
	if got != want {
		t.Fatalf("histogram encoding mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	snap := r.Snapshot()
	if snap[`jxta_test_latency_seconds_bucket{le="1"}`] != 4 {
		t.Fatalf("snapshot bucket: %v", snap)
	}
	if snap["jxta_test_latency_seconds_count"] != 6 {
		t.Fatalf("snapshot count: %v", snap)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("jxta_test_esc_total", `help with \ backslash`, "svc").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, `# HELP jxta_test_esc_total help with \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", got)
	}
	if !strings.Contains(got, `jxta_test_esc_total{svc="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", got)
	}
}

func TestCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jxta_test_peers_total", "per-peer", "peer")
	for i := 0; i < MaxCardinality+50; i++ {
		v.With(fmt.Sprintf("peer-%04d", i)).Inc()
	}
	if n := len(r.Snapshot()); n != MaxCardinality+1 {
		t.Fatalf("series = %d, want cap+overflow = %d", n, MaxCardinality+1)
	}
	// All 50 over-cap increments share the overflow child.
	over := v.With(OverflowLabel).Value()
	if over != 50 {
		t.Fatalf("overflow child = %d, want 50", over)
	}
	// Existing children keep working after the cap.
	v.With("peer-0000").Inc()
	if got := v.With("peer-0000").Value(); got != 2 {
		t.Fatalf("pre-cap child = %d, want 2", got)
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("jxta_test_x", "a counter")
	r.GaugeFunc("jxta_test_x", "now a gauge", func() float64 { return 0 })
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jxta_test_same", "h")
	b := r.Counter("jxta_test_same", "h")
	if a != b {
		t.Fatal("re-registration must return the same instrument")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments not shared")
	}
}

// TestRegistryConcurrent hammers every instrument type from many
// goroutines while encoding runs concurrently; run under -race it is the
// lock-freedom regression test, and the final counts prove no lost
// updates.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jxta_test_conc_total", "c")
	h := r.Histogram("jxta_test_conc_lat", "h", nil)
	v := r.CounterVec("jxta_test_conc_svc_total", "v", "service")

	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := v.With(fmt.Sprintf("svc-%d", w%4))
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.003)
				child.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-float64(workers*per)*0.003) > 1e-6 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}
	total := uint64(0)
	for i := 0; i < 4; i++ {
		total += v.With(fmt.Sprintf("svc-%d", i)).Value()
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
}

func TestCounterFuncWithLabeledChildren(t *testing.T) {
	r := NewRegistry()
	vals := []uint64{11, 22}
	for i := range vals {
		i := i
		r.CounterFuncWith("jxta_sim_shard_steps_total", "Events per shard.",
			"shard", fmt.Sprintf("%d", i), func() uint64 { return vals[i] })
	}
	snap := r.Snapshot()
	if snap[`jxta_sim_shard_steps_total{shard="0"}`] != 11 ||
		snap[`jxta_sim_shard_steps_total{shard="1"}`] != 22 {
		t.Fatalf("labeled func children wrong: %v", snap)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `jxta_sim_shard_steps_total{shard="1"} 22`) {
		t.Fatalf("encoding missing labeled func child:\n%s", b.String())
	}
}
