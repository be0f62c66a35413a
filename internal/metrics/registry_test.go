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
	for range 7 {
		c.Inc()
	}
	r.CounterFuncs("jxta_test_msgs_total", "messages by service", "service", func(emit func(string, uint64)) {
		emit("resolver", 2)
		emit("pipe.msg", 1)
	})
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
	h := NewHistogram([]float64{0.1, 1, 10})
	r.HistogramFunc("jxta_test_latency_seconds", "latency", func() *Histogram { return h })
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
	r.CounterFuncs("jxta_test_esc_total", `help with \ backslash`, "svc", func(emit func(string, uint64)) {
		emit("a\"b\\c\nd", 1)
	})
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

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a second registration of one name")
		}
	}()
	r := NewRegistry()
	r.CounterFunc("jxta_test_same", "h", func() uint64 { return 1 })
	r.CounterFunc("jxta_test_same", "h", func() uint64 { return 2 })
}

// TestEmptyHistogram: a family whose histogram is not allocated yet reads as
// every DefBuckets bucket at zero.
func TestEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.HistogramFunc("jxta_test_lat_seconds", "h", func() *Histogram { return nil })
	snap := r.Snapshot()
	if len(snap) != len(DefBuckets)+3 || snap[`jxta_test_lat_seconds_bucket{le="+Inf"}`] != 0 || snap["jxta_test_lat_seconds_count"] != 0 {
		t.Fatalf("empty histogram reads %v", snap)
	}
}

// TestRegistryConcurrent hammers the atomic Counter and Histogram from many
// goroutines while encoding runs concurrently; run under -race it is the
// lock-freedom regression test, and the final counts prove no lost
// updates.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jxta_test_conc_total", "c")
	h := NewHistogram(nil)
	r.HistogramFunc("jxta_test_conc_lat", "h", func() *Histogram { return h })
	var per4 [4]Counter
	r.CounterFuncs("jxta_test_conc_svc_total", "v", "service", func(emit func(string, uint64)) {
		for i := range per4 {
			emit(fmt.Sprintf("svc-%d", i), per4[i].Value())
		}
	})

	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := &per4[w%4]
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
	for k, v := range r.Snapshot() {
		if strings.HasPrefix(k, "jxta_test_conc_svc_total{") {
			total += uint64(v)
		}
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
}

func TestCounterFuncsLabeledChildren(t *testing.T) {
	r := NewRegistry()
	vals := []uint64{11, 0}
	r.CounterFuncs("jxta_sim_shard_steps_total", "Events per shard.", "shard", func(emit func(string, uint64)) {
		for i, v := range vals {
			emit(fmt.Sprintf("%d", i), v)
		}
	})
	vals[1] = 22 // read at encode time, not at registration
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
