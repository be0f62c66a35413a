package metrics

import (
	"testing"
)

// BenchmarkCounterInc is the tentpole's overhead proof: a counter
// increment must be a single uncontended atomic add — single-digit
// nanoseconds, zero allocations — so instruments can sit on every
// protocol hot path unconditionally. Recorded in BENCH_PR7.json.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_ops_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("lost increments")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_bytes_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1400)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_latency_seconds", "bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

// BenchmarkCounterVecCachedInc measures the steady-state Vec pattern:
// the child is looked up once (the endpoint caches per-service children
// the same way) and incremented lock-free thereafter.
func BenchmarkCounterVecCachedInc(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench_svc_total", "bench", "service").With("resolver")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterVecWith measures the uncached lookup path (one mutex
// acquisition + map hit) for reference; hot paths avoid it by caching.
func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_with_total", "bench", "service")
	v.With("resolver")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("resolver").Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_par_total", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
