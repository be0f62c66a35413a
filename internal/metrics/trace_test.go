package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(time.Duration(i)*time.Second, "ev", "")
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	// Oldest-first: sequences 7..10 survive.
	for i, ev := range evs {
		if ev.Seq != uint64(7+i) {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, ev.Seq, 7+i)
		}
		if ev.At != time.Duration(6+i)*time.Second {
			t.Fatalf("evs[%d].At = %v", i, ev.At)
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Record(time.Second, "x", "y") // must not panic
	if tr.Events() != nil || tr.Len() != 0 {
		t.Fatal("nil trace must be an empty no-op sink")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record(time.Duration(i), "promotion", "p")
				_ = tr.Events()
			}
		}()
	}
	wg.Wait()
	// Sequence numbers count every event, evicted ones included.
	if evs := tr.Events(); evs[len(evs)-1].Seq != 4000 {
		t.Fatalf("last sequence number = %d, want 4000", evs[len(evs)-1].Seq)
	}
	if tr.Len() != 64 {
		t.Fatalf("len = %d", tr.Len())
	}
}
