package env

import (
	"sync"
	"testing"
	"time"
)

func TestRealNowMonotonic(t *testing.T) {
	r := NewReal("n", 1)
	a := r.Now()
	time.Sleep(2 * time.Millisecond)
	b := r.Now()
	if b <= a {
		t.Fatalf("Now not monotonic: %v then %v", a, b)
	}
}

func TestRealAfterFires(t *testing.T) {
	r := NewReal("n", 1)
	done := make(chan struct{})
	r.Locked(func() { r.After(time.Millisecond, func() { close(done) }) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("After callback never fired")
	}
}

func TestRealAfterCancel(t *testing.T) {
	r := NewReal("n", 1)
	fired := make(chan struct{}, 1)
	canceled := false
	r.Locked(func() {
		tm := r.After(50*time.Millisecond, func() { fired <- struct{}{} })
		canceled = tm.Cancel()
	})
	if !canceled {
		t.Fatal("Cancel reported not-pending for pending timer")
	}
	select {
	case <-fired:
		t.Fatal("canceled callback fired")
	case <-time.After(120 * time.Millisecond):
	}
}

// TestRealCanceledTimerParkedOnLockNeverRuns forces the interleaving a
// timer per arm (time.AfterFunc around the node lock) got wrong: the timer
// is due while the lock holder is still inside, so its goroutine is parked
// on the lock when the holder cancels it. Cancel must report the callback
// pending, and the callback must not follow the holder in.
func TestRealCanceledTimerParkedOnLockNeverRuns(t *testing.T) {
	for try := 0; try < 50; try++ {
		r := NewReal("n", 1)
		ran := make(chan struct{}, 1)
		canceled := false
		r.Locked(func() {
			tm := r.After(time.Millisecond, func() { ran <- struct{}{} })
			time.Sleep(5 * time.Millisecond) // the timer comes due and waits for the lock
			canceled = tm.Cancel()
		})
		if !canceled {
			t.Fatalf("try %d: Cancel reported a due, unrun callback as not pending", try)
		}
		select {
		case <-ran:
			t.Fatalf("try %d: the canceled callback ran", try)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestRealCallbacksSerialized(t *testing.T) {
	r := NewReal("n", 1)
	var inCritical int32
	var wg sync.WaitGroup
	violation := false
	r.Locked(func() {
		for i := 0; i < 20; i++ {
			wg.Add(1)
			r.After(time.Duration(i%3)*time.Millisecond, func() {
				defer wg.Done()
				inCritical++
				if inCritical != 1 {
					violation = true
				}
				time.Sleep(time.Millisecond)
				inCritical--
			})
		}
	})
	wg.Wait()
	if violation {
		t.Fatal("callbacks overlapped")
	}
}

func TestRealLockedExcludesCallbacks(t *testing.T) {
	r := NewReal("n", 1)
	order := make(chan string, 2)
	r.Locked(func() {
		r.After(0, func() { order <- "cb" })
		time.Sleep(20 * time.Millisecond)
		order <- "locked"
	})
	first := <-order
	if first != "locked" {
		t.Fatalf("callback ran while Locked section held the node: first=%q", first)
	}
}

func TestRealRandDeterministic(t *testing.T) {
	a := NewReal("a", 99).Rand().Int63()
	b := NewReal("b", 99).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different first values")
	}
}

func TestName(t *testing.T) {
	if NewReal("edge-1", 0).Name() != "edge-1" {
		t.Fatal("Name mismatch")
	}
}

// TestCancelStormCompactsHeap: a timeout-renewal workload schedules far in
// the future and cancels on every renewal. Tombstones must not accumulate
// for the whole window.
func TestCancelStormCompactsHeap(t *testing.T) {
	var q Queue
	for i := 0; i < 10000; i++ {
		q.Arm(time.Hour, func() {}, NoOwner).Cancel()
	}
	if len(q.heap) > 2*compactThreshold {
		t.Fatalf("heap holds %d entries after canceling everything", len(q.heap))
	}
	// Live events interleaved with heavy cancellation still fire in order.
	var got []int
	for i := 0; i < 100; i++ {
		q.Arm(time.Duration(i)*time.Millisecond, func() { got = append(got, i) }, NoOwner)
		for j := 0; j < 30; j++ {
			q.Arm(time.Hour, func() {}, NoOwner).Cancel()
		}
	}
	for {
		_, fn, arg, ok := q.Pop()
		if !ok {
			break
		}
		fn(arg)
	}
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken after compactions: %v", got[:i+1])
		}
	}
}
