package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"jxta/internal/topology"
)

func TestSweepRunsAll(t *testing.T) {
	var count int64
	err := Sweep(37, func(i int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil || count != 37 {
		t.Fatalf("count=%d err=%v", count, err)
	}
}

func TestSweepReportsFirstError(t *testing.T) {
	boom := errors.New("boom")
	err := Sweep(10, func(i int) error {
		if i%3 == 0 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
}

// TestSweepStopsDispatchAfterError pins the early-stop contract: once a
// point fails, undisbatched points must never start. Job 0 fails
// immediately; with GOMAXPROCS workers at most workers+1 further points can
// already be in flight or queued, so on a 512-point sweep the executed
// count staying far below n proves the dispatcher stopped.
func TestSweepStopsDispatchAfterError(t *testing.T) {
	boom := errors.New("boom")
	var executed int64
	n := 512
	err := Sweep(n, func(i int) error {
		atomic.AddInt64(&executed, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond) // let the failure land before the queue drains
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := atomic.LoadInt64(&executed); got > int64(n/4) {
		t.Fatalf("%d of %d points executed after first error: dispatcher did not stop", got, n)
	}
}

func TestSweepEmpty(t *testing.T) {
	if err := Sweep(0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestFig4RightParallelMatchesSequential holds Fig4Right's concurrent sweep
// to a plain per-point RunDiscovery loop.
func TestFig4RightParallelMatchesSequential(t *testing.T) {
	rs := []int{5, 8}
	par, err := Fig4Right(rs, false, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		seq, err := RunDiscovery(DiscoverySpec{R: r, Queries: 10, Seed: 77 + int64(r)})
		if err != nil {
			t.Fatal(err)
		}
		if par[i].MeanMs != seq.MeanMs || par[i].Steps != seq.Steps {
			t.Fatalf("r=%d: parallel %.3f ms / %d steps != sequential %.3f ms / %d steps (determinism broken)",
				r, par[i].MeanMs, par[i].Steps, seq.MeanMs, seq.Steps)
		}
	}
}

func TestFig3LeftParallel(t *testing.T) {
	out, err := Fig3Left([]int{8, 10}, topology.Chain, 10*time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Spec.R != 8 || out[1].Spec.R != 10 {
		t.Fatal("results out of order")
	}
	if out[0].FinalSize != 7 || out[1].FinalSize != 9 {
		t.Fatalf("sizes %d/%d", out[0].FinalSize, out[1].FinalSize)
	}
}
