package simnet

import (
	"fmt"
	"testing"
	"time"

	"jxta/internal/env"
)

// BenchmarkScheduleFireCancelMix models the protocol workload shape: most
// events fire, but a steady fraction (response timeouts answered early,
// leases renewed) is canceled before firing.
func BenchmarkScheduleFireCancelMix(b *testing.B) {
	s := NewScheduler(1)
	noop := func() {}
	var pending []env.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.After(time.Duration(i%977)*time.Microsecond, noop)
		if i%4 == 0 {
			pending = append(pending, ev)
		}
		if len(pending) >= 64 {
			for _, p := range pending {
				p.Cancel()
			}
			pending = pending[:0]
		}
		if s.Pending() > 8192 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	b.StopTimer()
	s.RunAll()
}

// BenchmarkSchedulerPayloadEvents measures the transport-style fast path:
// payload-carrying events dispatched through a stored func value, the form
// that must not allocate per event.
func BenchmarkSchedulerPayloadEvents(b *testing.B) {
	s := NewScheduler(1)
	type payload struct{ n int }
	sink := 0
	deliver := func(a any) { sink += a.(*payload).n }
	p := &payload{n: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtCall(s.Now()+time.Duration(i%977)*time.Microsecond, deliver, p)
		if s.Pending() > 8192 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	b.StopTimer()
	s.RunAll()
	if sink == 0 && b.N > 8192 {
		b.Fatal("payload events did not run")
	}
}

// BenchmarkTickerHeavy drives the peerview-like steady state: hundreds of
// periodic tickers re-arming forever, the dominant non-message event source
// in overlay simulations.
func BenchmarkTickerHeavy(b *testing.B) {
	s := NewScheduler(1)
	const tickers = 500
	fires := 0
	for i := 0; i < tickers; i++ {
		e := s.NewEnv("n")
		env.NewTicker(e, time.Duration(250+i)*time.Millisecond, func() { fires++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + time.Second)
	}
	b.StopTimer()
	if fires == 0 {
		b.Fatal("tickers did not fire")
	}
	b.ReportMetric(float64(s.Steps())/float64(b.N), "events/op")
}

// BenchmarkShardBarrier measures the per-window coordination overhead of
// the sharded engine: every shard has exactly one event per window, so the
// cost per op is dominated by dispatch, quiesce, and merge — the price a
// workload pays even when windows carry little work.
func BenchmarkShardBarrier(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		b.Run(benchName("shards", shards), func(b *testing.B) {
			ss := NewSharded(1, shards, time.Millisecond)
			fired := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := ss.Now() + 100*time.Microsecond
				for s := 0; s < shards; s++ {
					ss.Shard(s).After(at-ss.Now(), func() { fired++ })
				}
				ss.Run(at)
			}
			b.StopTimer()
			if fired != b.N*shards {
				b.Fatalf("fired %d, want %d", fired, b.N*shards)
			}
		})
	}
}

// BenchmarkCrossShardDelivery measures the exchange-queue path: enqueue on
// the source shard, (timestamp, source, sequence) merge at the barrier,
// injection into the destination heap, and execution — the full life of one
// cross-shard message, without transport on top.
func BenchmarkCrossShardDelivery(b *testing.B) {
	const batch = 256
	ss := NewSharded(1, 2, time.Millisecond)
	fired := 0
	deliver := func(any) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		at := ss.Now() + 2*time.Millisecond
		for j := 0; j < batch && i+j < b.N; j++ {
			ss.XSchedule(j%2, 1-j%2, at+time.Duration(j)*time.Nanosecond, deliver, nil)
		}
		ss.Run(at + time.Microsecond)
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

func benchName(k string, v int) string { return fmt.Sprintf("%s=%d", k, v) }
