package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"jxta/internal/env"
)

func TestStepOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("now = %v, want 30ms", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of FIFO order: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Second, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.AtCall(time.Millisecond, func(any) {}, nil)
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(3*time.Second, func() { fired++ })
	n := s.Run(2 * time.Second)
	if n != 1 || fired != 1 {
		t.Fatalf("Run executed %d events (fired=%d), want 1", n, fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s (advance to horizon)", s.Now())
	}
	s.Run(4 * time.Second)
	if fired != 2 {
		t.Fatalf("second event did not fire")
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.Run(2 * time.Second)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	ev := s.After(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel on pending event reported false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	s.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler(1)
	ev := s.After(0, func() {})
	s.RunAll()
	if ev.Cancel() {
		t.Fatal("Cancel after firing reported true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	evs := make([]env.Event, 20)
	for i := 0; i < 20; i++ {
		i := i
		evs[i] = s.After(time.Duration(i)*time.Millisecond, func() { got = append(got, i) })
	}
	// Cancel odd events.
	for i := 1; i < 20; i += 2 {
		evs[i].Cancel()
	}
	s.RunAll()
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
	for idx, v := range got {
		if v != idx*2 {
			t.Fatalf("unexpected order after cancels: %v", got)
		}
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {
			ran++
			if ran == 3 {
				s.Halt()
			}
		})
	}
	s.RunAll()
	if ran != 3 {
		t.Fatalf("ran %d events after Halt, want 3", ran)
	}
	// A subsequent Run resumes.
	s.Run(time.Second)
	if ran != 10 {
		t.Fatalf("resume ran %d total, want 10", ran)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(0, recurse)
	s.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 99*time.Millisecond {
		t.Fatalf("now = %v, want 99ms", s.Now())
	}
}

func TestDeriveRandDecorrelated(t *testing.T) {
	s := NewScheduler(42)
	a := s.DeriveRand(0)
	b := s.DeriveRand(1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63()%2 == b.Int63()%2 {
			same++
		}
	}
	if same == 64 || same == 0 {
		t.Fatalf("streams look correlated: %d/64 parity matches", same)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		s := NewScheduler(7)
		envs := []*NodeEnv{s.NewEnv("a"), s.NewEnv("b"), s.NewEnv("c")}
		var fires []time.Duration
		for _, e := range envs {
			e := e
			var tick func()
			tick = func() {
				fires = append(fires, s.Now())
				d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
				e.After(d, tick)
			}
			e.After(0, tick)
		}
		s.Run(30 * time.Second)
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTickerOnSim(t *testing.T) {
	s := NewScheduler(1)
	e := s.NewEnv("n")
	count := 0
	tk := env.NewTicker(e, 30*time.Second, func() { count++ })
	s.Run(5 * time.Minute)
	if count != 10 {
		t.Fatalf("ticker fired %d times in 5min at 30s, want 10", count)
	}
	tk.Stop()
	s.Run(10 * time.Minute)
	if count != 10 {
		t.Fatalf("ticker fired after Stop")
	}
}

// Property: events always execute in nondecreasing time order regardless of
// insertion order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		var times []time.Duration
		for i := 0; i < int(n); i++ {
			s.After(time.Duration(rng.Intn(10000))*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		s.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroEventHandleCancel(t *testing.T) {
	var ev env.Event
	if ev.Cancel() {
		t.Fatal("zero Event handle Cancel reported true")
	}
}

func TestCancelHandleSurvivesSlotReuse(t *testing.T) {
	// A canceled event's slot is recycled by later events; the stale handle
	// must not cancel the new occupant (generation check).
	s := NewScheduler(1)
	stale := s.After(time.Second, func() {})
	if !stale.Cancel() {
		t.Fatal("first Cancel failed")
	}
	fired := false
	s.After(time.Second, func() { fired = true }) // reuses the freed slot
	if stale.Cancel() {
		t.Fatal("stale handle canceled a recycled slot")
	}
	s.RunAll()
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

func TestPendingDiscountsCancels(t *testing.T) {
	s := NewScheduler(1)
	evs := make([]env.Event, 10)
	for i := range evs {
		evs[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	for i := 0; i < 5; i++ {
		evs[i].Cancel()
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending after cancels = %d, want 5", s.Pending())
	}
	if n := s.RunAll(); n != 5 {
		t.Fatalf("RunAll executed %d, want 5", n)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after RunAll = %d, want 0", s.Pending())
	}
}

func TestAtCallPayload(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	s.AtCall(2*time.Millisecond, record, 2)
	s.AtCall(time.Millisecond, record, 1)
	s.AtCall(3*time.Millisecond, record, 3)
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("payload events = %v, want [1 2 3]", got)
	}
}

// Property: interleaved schedule/cancel sequences never fire canceled
// events and always fire live ones in order.
func TestCancelStormProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		type rec struct {
			ev       env.Event
			canceled bool
		}
		var recs []*rec
		fired := make(map[int]bool)
		for i := 0; i < int(n); i++ {
			i := i
			r := &rec{}
			r.ev = s.After(time.Duration(rng.Intn(5000))*time.Microsecond, func() {
				fired[i] = true
			})
			recs = append(recs, r)
			// Cancel a random earlier event half the time.
			if len(recs) > 0 && rng.Intn(2) == 0 {
				v := recs[rng.Intn(len(recs))]
				if v.ev.Cancel() {
					v.canceled = true
				}
			}
		}
		s.RunAll()
		for i, r := range recs {
			if r.canceled == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if s.Pending() > 10000 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	s.RunAll()
}

// TestPendingForLedger exercises the per-env pending-callback accounting:
// owned events are counted while live and settled on both fire and cancel,
// and events of one env never bleed into another's ledger.
func TestPendingForLedger(t *testing.T) {
	s := NewScheduler(9)
	a := s.NewEnv("a")
	b := s.NewEnv("b")

	if a.Pending() != 0 {
		t.Fatal("fresh env has pending callbacks")
	}

	ta := a.After(time.Millisecond, func() {})
	a.After(2*time.Millisecond, func() {})
	b.After(time.Millisecond, func() {})
	s.After(time.Millisecond, func() {}) // unowned: no ledger entry

	if got := a.Pending(); got != 2 {
		t.Fatalf("a.Pending() = %d, want 2", got)
	}
	if got := b.Pending(); got != 1 {
		t.Fatalf("b.Pending() = %d, want 1", got)
	}

	if !ta.Cancel() {
		t.Fatal("cancel failed")
	}
	if got := a.Pending(); got != 1 {
		t.Fatalf("a.Pending() after cancel = %d, want 1", got)
	}

	s.RunAll()
	if a.Pending() != 0 || b.Pending() != 0 {
		t.Fatalf("ledger nonzero after drain: a=%d b=%d", a.Pending(), b.Pending())
	}
}

// TestPendingForRearm covers the ticker shape: a callback that re-arms
// itself from inside the firing keeps the ledger at exactly one.
func TestPendingForRearm(t *testing.T) {
	s := NewScheduler(3)
	e := s.NewEnv("n")
	fires := 0
	var arm func()
	arm = func() {
		e.After(time.Second, func() {
			fires++
			if fires < 5 {
				arm()
			}
		})
	}
	arm()
	for e.Pending() > 0 {
		if got := e.Pending(); got != 1 {
			t.Fatalf("mid-run Pending = %d, want 1", got)
		}
		s.Step()
	}
	if fires != 5 {
		t.Fatalf("fires = %d, want 5", fires)
	}
}

// TestPendingForForeignEnv asserts the ledger is scoped to the scheduler
// that created the env: the first env of another scheduler has the same
// creation index and counts none of its callbacks.
func TestPendingForForeignEnv(t *testing.T) {
	s1 := NewScheduler(1)
	s2 := NewScheduler(2)
	e1 := s1.NewEnv("n")
	e2 := s2.NewEnv("n")
	e1.After(time.Second, func() {})
	if got := e2.Pending(); got != 0 {
		t.Fatalf("foreign Pending = %d, want 0", got)
	}
	if got := e1.Pending(); got != 1 {
		t.Fatalf("own Pending = %d, want 1", got)
	}
}
