package simnet

import (
	"runtime"
	"testing"
	"time"
)

func TestShardedZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(seed, 2, 0) did not panic")
		}
	}()
	NewSharded(1, 2, 0)
}

func TestShardedSingleShardIgnoresLookahead(t *testing.T) {
	// One shard has no cross-shard causality; zero lookahead is fine and
	// Run must not degenerate into zero-width windows.
	ss := NewSharded(1, 1, 0)
	fired := 0
	ss.NewEnvOn(0, "a").After(3*time.Millisecond, func() { fired++ })
	ss.Run(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if ss.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", ss.Now())
	}
}

func TestShardedEmptyWindowsSkipped(t *testing.T) {
	// Sparse events: the loop must jump between event times, not grind
	// through every lookahead-width window of silence.
	ss := NewSharded(1, 2, time.Millisecond)
	e := ss.NewEnvOn(0, "a")
	fired := 0
	for i := 1; i <= 5; i++ {
		e.After(time.Duration(i)*time.Second, func() { fired++ })
	}
	ss.Run(10 * time.Second)
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if w := ss.ParallelStats().Windows; w > 10 {
		t.Fatalf("%d windows for 5 sparse events over 10s: empty windows not skipped", w)
	}
	if ss.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", ss.Now())
	}
}

func TestShardedBarrierMergeOrder(t *testing.T) {
	// Entries from both source shards into one destination must execute
	// in (timestamp, source shard, sequence) order regardless of enqueue
	// order across queues.
	ss := NewSharded(1, 2, time.Millisecond)
	var got []int
	rec := func(label int) (func(any), any) {
		return func(any) { got = append(got, label) }, nil
	}
	// Enqueued deliberately out of merge order.
	fn, arg := rec(3)
	ss.XSchedule(1, 0, 5*time.Millisecond, fn, arg) // (5ms, src1, seq0)
	fn, arg = rec(1)
	ss.XSchedule(0, 0, 5*time.Millisecond, fn, arg) // (5ms, src0, seq0)
	fn, arg = rec(0)
	ss.XSchedule(1, 0, 3*time.Millisecond, fn, arg) // (3ms, src1, seq1): earliest timestamp wins
	fn, arg = rec(2)
	ss.XSchedule(0, 0, 5*time.Millisecond, fn, arg) // (5ms, src0, seq1)
	ss.Run(10 * time.Millisecond)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestShardedPendingCountsExchangeQueues(t *testing.T) {
	ss := NewSharded(1, 2, time.Millisecond)
	ss.NewEnvOn(0, "a").After(time.Millisecond, func() {})
	ss.XSchedule(0, 1, 2*time.Millisecond, func(any) {}, nil)
	if p := ss.Pending(); p != 2 {
		t.Fatalf("Pending = %d, want 2 (one heap event + one queued exchange)", p)
	}
	ss.Run(5 * time.Millisecond)
	if p := ss.Pending(); p != 0 {
		t.Fatalf("Pending after run = %d, want 0", p)
	}
	if ss.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", ss.Steps())
	}
}

func TestShardedDriverRunsQuiesced(t *testing.T) {
	// A driver callback must observe every shard clock aligned at its own
	// exact timestamp — the quiesced-barrier contract that makes
	// cross-shard mutation (churn injection) safe.
	ss := NewSharded(1, 2, time.Millisecond)
	e0 := ss.NewEnvOn(0, "a")
	e1 := ss.NewEnvOn(1, "b")
	var before, after int
	e0.After(2*time.Millisecond, func() { before++ })
	e1.After(7*time.Millisecond, func() { after++ })
	checked := false
	ss.After(5*time.Millisecond, func() {
		checked = true
		if ss.Now() != 5*time.Millisecond {
			t.Errorf("driver Now = %v, want 5ms", ss.Now())
		}
		for i := 0; i < ss.Shards(); i++ {
			if got := ss.Shard(i).Now(); got != 5*time.Millisecond {
				t.Errorf("shard %d Now = %v, want 5ms", i, got)
			}
		}
		if before != 1 || after != 0 {
			t.Errorf("driver saw before=%d after=%d, want 1, 0", before, after)
		}
	})
	ss.Run(10 * time.Millisecond)
	if !checked {
		t.Fatal("driver callback did not run")
	}
	if after != 1 {
		t.Fatal("post-driver shard event did not run")
	}
}

func TestShardedHaltStopsAtBarrier(t *testing.T) {
	ss := NewSharded(1, 2, time.Millisecond)
	e := ss.NewEnvOn(0, "a")
	fired := 0
	e.After(2*time.Millisecond, func() { fired++ })
	e.After(8*time.Millisecond, func() { fired++ })
	ss.After(5*time.Millisecond, ss.Halt)
	ss.Run(20 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (halt must stop the 8ms event)", fired)
	}
	if ss.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want halt point 5ms (a halted run must not jump to the horizon)", ss.Now())
	}
	// A later Run resumes where the halt left off.
	ss.Run(20 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired after resume = %d, want 2", fired)
	}
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	// An event exchanged with a timestamp inside the current window is a
	// causality violation; the merge must refuse it loudly.
	ss := NewSharded(1, 2, time.Millisecond)
	ss.Shard(0).After(0, func() {
		ss.XSchedule(0, 1, 0, func(any) {}, nil) // arrival in the past at merge
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	ss.Run(10 * time.Millisecond)
}

func TestShardedDeterministicReplay(t *testing.T) {
	// Two engines over the same seed must execute identical event
	// sequences, including cross-shard traffic driven by derived RNG
	// streams.
	run := func() (uint64, uint64, time.Duration) {
		ss := NewSharded(42, 4, time.Millisecond)
		envs := make([]*NodeEnv, 4)
		for i := range envs {
			envs[i] = ss.NewEnvOn(i, "n")
		}
		var pingPong func(from, to int, at time.Duration)
		pingPong = func(from, to int, at time.Duration) {
			ss.XSchedule(from, to, at, func(any) {
				if at < 50*time.Millisecond {
					jitter := time.Duration(envs[to].Rand().Intn(1000)) * time.Microsecond
					pingPong(to, (to+1)%4, at+time.Millisecond+jitter)
				}
			}, nil)
		}
		ss.Shard(0).After(0, func() { pingPong(0, 1, 2*time.Millisecond) })
		ss.Run(100 * time.Millisecond)
		st := ss.ParallelStats()
		return ss.Steps(), st.CrossShard, ss.Now()
	}
	s1, x1, n1 := run()
	s2, x2, n2 := run()
	if s1 != s2 || x1 != x2 || n1 != n2 {
		t.Fatalf("replay diverged: (%d,%d,%v) vs (%d,%d,%v)", s1, x1, n1, s2, x2, n2)
	}
	if x1 == 0 {
		t.Fatal("scenario exercised no cross-shard traffic")
	}
}

func TestShardedRunParksWorkers(t *testing.T) {
	// Worker goroutines live only inside Run: a finished engine holds no
	// goroutines (the leak-free teardown contract from PR 3).
	before := runtime.NumGoroutine()
	ss := NewSharded(1, 4, time.Millisecond)
	for i := 0; i < 4; i++ {
		e := ss.NewEnvOn(i, "n")
		// Several events per shard in one window so workers actually spawn.
		for j := 0; j < 8; j++ {
			e.After(time.Duration(j)*100*time.Microsecond, func() {})
		}
	}
	ss.Run(time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Run, %d before: workers not parked", got, before)
	}
}

// The TestPipelined* tests below were written for the window-pipelined
// engine deleted in PR 25. They keep their names and now hold each property
// on the barrier engine, the only sharded protocol.

// pingPongFingerprint drives the same RNG-jittered cross-shard cascade as
// TestShardedDeterministicReplay and returns an order-sensitive fingerprint
// of the execution: determinism means the exact sequence is invariant, not
// just the totals.
func pingPongFingerprint(t *testing.T) (uint64, uint64, uint64) {
	t.Helper()
	ss := NewSharded(42, 4, time.Millisecond)
	envs := make([]*NodeEnv, 4)
	for i := range envs {
		envs[i] = ss.NewEnvOn(i, "n")
	}
	// hashes[i] is only ever touched by events running on shard i, so the
	// per-shard sequences are exact; the cross-shard fold below is in fixed
	// index order.
	var hashes [4]uint64
	var pingPong func(from, to int, at time.Duration)
	pingPong = func(from, to int, at time.Duration) {
		ss.XSchedule(from, to, at, func(any) {
			hashes[to] = (hashes[to] ^ (uint64(to)<<32 ^ uint64(at))) * 1099511628211
			if at < 50*time.Millisecond {
				jitter := time.Duration(envs[to].Rand().Intn(1000)) * time.Microsecond
				pingPong(to, (to+1)%4, at+time.Millisecond+jitter)
			}
		}, nil)
	}
	ss.Shard(0).After(0, func() { pingPong(0, 1, 2*time.Millisecond) })
	ss.Run(100 * time.Millisecond)
	if ss.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v, want 100ms", ss.Now())
	}
	hash := uint64(14695981039346656037)
	for _, h := range hashes {
		hash = (hash ^ h) * 1099511628211
	}
	return ss.Steps(), ss.ParallelStats().CrossShard, hash
}

func TestPipelinedDeterministicReplay(t *testing.T) {
	s1, x1, h1 := pingPongFingerprint(t)
	s2, x2, h2 := pingPongFingerprint(t)
	if s1 != s2 || x1 != x2 || h1 != h2 {
		t.Fatalf("replay diverged: (%d,%d,%x) vs (%d,%d,%x)", s1, x1, h1, s2, x2, h2)
	}
	if x1 == 0 {
		t.Fatal("scenario exercised no cross-shard traffic")
	}
}

func TestPipelinedGOMAXPROCSInvariant(t *testing.T) {
	// Barriers are decided from event content alone, so the exact sequence
	// replays whether shard windows run on one OS thread or eight.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	type res struct {
		s, x, h uint64
	}
	var got []res
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		s, x, h := pingPongFingerprint(t)
		got = append(got, res{s, x, h})
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("GOMAXPROCS run %d diverged: %+v vs %+v", i, got[i], got[0])
		}
	}
}

func TestPipelinedLeftoverCrossPhaseDelivery(t *testing.T) {
	// A cross-shard event emitted during a Run but arriving beyond its
	// until must stay pending between Runs and fire in a later one.
	ss := NewSharded(9, 2, time.Millisecond)
	fired := false
	ss.Shard(0).After(2*time.Millisecond, func() {
		ss.XSchedule(0, 1, 50*time.Millisecond, func(any) { fired = true }, nil)
	})
	ss.Run(10 * time.Millisecond)
	if fired {
		t.Fatal("future event fired inside the wrong Run")
	}
	if p := ss.Pending(); p != 1 {
		t.Fatalf("Pending = %d, want 1 leftover", p)
	}
	ss.Run(60 * time.Millisecond)
	if !fired {
		t.Fatal("leftover cross-Run event never fired")
	}
	if p := ss.Pending(); p != 0 {
		t.Fatalf("Pending after delivery = %d, want 0", p)
	}
}

func TestPipelinedDriverQuiescesShards(t *testing.T) {
	// TestShardedDriverRunsQuiesced with the post-driver event in flight
	// through an exchange queue: a driver callback that splits a window
	// while cross-shard traffic is outstanding still sees every shard clock
	// at its timestamp, and the in-flight event is neither early nor lost.
	ss := NewSharded(1, 2, time.Millisecond)
	e0 := ss.NewEnvOn(0, "a")
	ss.NewEnvOn(1, "b")
	var before, after int
	e0.After(2*time.Millisecond, func() {
		before++
		ss.XSchedule(0, 1, 7*time.Millisecond, func(any) { after++ }, nil)
	})
	checked := false
	ss.After(5*time.Millisecond, func() {
		checked = true
		if ss.Now() != 5*time.Millisecond {
			t.Errorf("driver Now = %v, want 5ms", ss.Now())
		}
		for i := 0; i < ss.Shards(); i++ {
			if got := ss.Shard(i).Now(); got != 5*time.Millisecond {
				t.Errorf("shard %d Now = %v, want 5ms", i, got)
			}
		}
		if before != 1 || after != 0 {
			t.Errorf("driver saw before=%d after=%d, want 1, 0", before, after)
		}
	})
	ss.Run(10 * time.Millisecond)
	if !checked {
		t.Fatal("driver callback did not run")
	}
	if after != 1 {
		t.Fatal("post-driver cross-shard event did not run")
	}
}

func TestPipelinedRunLeavesNoGoroutines(t *testing.T) {
	// TestShardedRunParksWorkers with the events spread over many windows:
	// workers spawned in one window and reused in later ones are all parked
	// when Run returns.
	before := runtime.NumGoroutine()
	ss := NewSharded(1, 4, time.Millisecond)
	for i := 0; i < 4; i++ {
		e := ss.NewEnvOn(i, "n")
		for j := 0; j < 8; j++ {
			e.After(time.Duration(j+1)*700*time.Microsecond, func() {})
		}
	}
	ss.Run(time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Run, %d before: workers leaked", got, before)
	}
}
