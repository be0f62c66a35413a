package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jxta/internal/ids"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if len(s.Times) != 0 || len(s.Values) != 0 {
		t.Fatal("empty series holds points")
	}
	s.Add(time.Minute, 3)
	s.Add(2*time.Minute, 7)
	s.Add(3*time.Minute, 5)
	if len(s.Times) != 3 || len(s.Values) != 3 {
		t.Fatalf("%d times, %d values after three points", len(s.Times), len(s.Values))
	}
	if s.Times[1] != 2*time.Minute || s.Values[1] != 7 {
		t.Fatalf("point 1 = (%v, %g), want (2m, 7)", s.Times[1], s.Values[1])
	}
}

func TestSeriesMeanAfter(t *testing.T) {
	var s Series
	for i := 1; i <= 10; i++ {
		s.Add(time.Duration(i)*time.Minute, float64(i))
	}
	// After minute 6: values 6..10, mean 8.
	if got := s.MeanAfter(6 * time.Minute); got != 8 {
		t.Fatalf("MeanAfter = %g, want 8", got)
	}
	if s.MeanAfter(time.Hour) != 0 {
		t.Fatal("MeanAfter past end should be 0")
	}
}

func TestSeriesCSV(t *testing.T) {
	var s Series
	s.Add(90*time.Second, 42)
	csv := s.CSV()
	if !strings.Contains(csv, "1.50,42") {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestEventLogNumbering(t *testing.T) {
	l := NewEventLog()
	p1 := ids.FromName(ids.KindPeer, "p1")
	p2 := ids.FromName(ids.KindPeer, "p2")
	l.Record(time.Minute, EventAdd, p1)
	l.Record(2*time.Minute, EventAdd, p2)
	l.Record(3*time.Minute, EventRemove, p1)
	l.Record(4*time.Minute, EventAdd, p1) // re-add keeps number 1
	if l.DistinctPeers() != 2 {
		t.Fatalf("DistinctPeers = %d", l.DistinctPeers())
	}
	if l.Events[0].PeerNum != 1 || l.Events[1].PeerNum != 2 ||
		l.Events[2].PeerNum != 1 || l.Events[3].PeerNum != 1 {
		t.Fatalf("numbering wrong: %+v", l.Events)
	}
	adds, removes := l.Counts()
	if adds != 3 || removes != 1 {
		t.Fatalf("Counts = %d, %d", adds, removes)
	}
}

func TestEventLogPhaseMarkers(t *testing.T) {
	l := NewEventLog()
	p1 := ids.FromName(ids.KindPeer, "p1")
	p2 := ids.FromName(ids.KindPeer, "p2")
	if _, ok := l.FirstRemoveAt(); ok {
		t.Fatal("empty log has a first remove")
	}
	if _, ok := l.LastAddAt(); ok {
		t.Fatal("empty log has a last add")
	}
	l.Record(time.Minute, EventAdd, p1)
	l.Record(20*time.Minute, EventRemove, p1)
	l.Record(21*time.Minute, EventAdd, p1) // re-add is not a new distinct add
	l.Record(30*time.Minute, EventAdd, p2)
	at, ok := l.FirstRemoveAt()
	if !ok || at != 20*time.Minute {
		t.Fatalf("FirstRemoveAt = %v, %v", at, ok)
	}
	last, ok := l.LastAddAt()
	if !ok || last != 30*time.Minute {
		t.Fatalf("LastAddAt = %v, %v", last, ok)
	}
}

func TestSamplesStats(t *testing.T) {
	var s Samples
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.N() != 0 {
		t.Fatal("empty samples accessors wrong")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Quantile(0.5) != 3 {
		t.Fatalf("median = %g", s.Quantile(0.5))
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Fatal("min/max wrong")
	}
	if s.Quantile(-1) != 1 || s.Quantile(2) != 5 {
		t.Fatal("clamped quantiles wrong")
	}
}

func TestSamplesAddDuration(t *testing.T) {
	var s Samples
	s.AddDuration(12 * time.Millisecond)
	if s.Mean() != 12 {
		t.Fatalf("AddDuration stored %g, want 12 (ms)", s.Mean())
	}
}

func TestSamplesInterleavedAddQuantile(t *testing.T) {
	var s Samples
	s.Add(5)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort
	if s.Quantile(0) != 1 {
		t.Fatal("sort cache stale after Add")
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Samples
		for i := 0; i < int(n)+1; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		prev, max := s.Quantile(0), s.Quantile(1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 || v > max+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max] and matches a direct computation.
func TestMeanProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if v != v || v > 1e15 || v < -1e15 { // NaN / huge guards
				return true
			}
		}
		var s Samples
		sum := 0.0
		for _, v := range vals {
			s.Add(v)
			sum += v
		}
		want := sum / float64(len(vals))
		got := s.Mean()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return diff < 1e-6 && got >= sorted[0]-1e-9 && got <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
