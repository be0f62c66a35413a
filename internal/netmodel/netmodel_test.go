package netmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSiteNames(t *testing.T) {
	if Rennes.String() != "rennes" || Sophia.String() != "sophia" {
		t.Fatal("site names wrong")
	}
	if Site(99).String() != "site(99)" {
		t.Fatal("out-of-range site name")
	}
	for i := range NumSites {
		s := Site(i)
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSite(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSite("atlantis"); err == nil {
		t.Fatal("unknown site parsed")
	}
}

func TestGrid5000MatrixComplete(t *testing.T) {
	m := Grid5000()
	for i := 0; i < NumSites; i++ {
		for j := 0; j < NumSites; j++ {
			if i == j {
				continue
			}
			if m.InterSite[i][j] <= 0 {
				t.Fatalf("missing latency %v-%v", Site(i), Site(j))
			}
			if m.InterSite[i][j] != m.InterSite[j][i] {
				t.Fatalf("asymmetric latency %v-%v", Site(i), Site(j))
			}
		}
	}
}

func TestGrid5000Plausible(t *testing.T) {
	m := Grid5000()
	var sum time.Duration
	for i := range NumSites {
		for j := i + 1; j < NumSites; j++ {
			sum += m.InterSite[i][j]
		}
	}
	mean := sum / time.Duration(NumSites*(NumSites-1)/2)
	if mean < time.Millisecond || mean > 20*time.Millisecond {
		t.Fatalf("mean inter-site latency %v implausible for RENATER", mean)
	}
	if m.IntraSite >= mean {
		t.Fatal("LAN latency not below WAN latency")
	}
}

func TestBaseLatencyIntraSite(t *testing.T) {
	m := Grid5000()
	if m.BaseLatency(Rennes, Rennes) != m.IntraSite {
		t.Fatal("same-site latency != IntraSite")
	}
}

func TestSampleLatencyJitterBounds(t *testing.T) {
	m := Grid5000()
	rng := rand.New(rand.NewSource(5))
	base := m.BaseLatency(Rennes, Sophia)
	for i := 0; i < 1000; i++ {
		d := m.SampleLatency(Rennes, Sophia, 0, rng)
		lo := time.Duration(float64(base) * (1 - m.Jitter - 1e-9))
		hi := time.Duration(float64(base) * (1 + m.Jitter + 1e-9))
		if d < lo || d > hi {
			t.Fatalf("sample %v outside [%v,%v]", d, lo, hi)
		}
	}
}

func TestSampleLatencyTransmissionTerm(t *testing.T) {
	m := Uniform(time.Millisecond)
	m.BandwidthBps = 1_000_000_000
	rng := rand.New(rand.NewSource(1))
	small := m.SampleLatency(Rennes, Sophia, 0, rng)
	large := m.SampleLatency(Rennes, Sophia, 1_250_000, rng) // 10 ms at 1 Gb/s
	if large-small < 9*time.Millisecond {
		t.Fatalf("transmission term missing: small=%v large=%v", small, large)
	}
}

func TestUniformModel(t *testing.T) {
	m := Uniform(2 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	for a := range Site(NumSites) {
		for b := range Site(NumSites) {
			if d := m.SampleLatency(a, b, 0, rng); d != 2*time.Millisecond {
				t.Fatalf("uniform latency %v between %v and %v", d, a, b)
			}
		}
	}
}

func TestDrop(t *testing.T) {
	m := Uniform(time.Millisecond)
	rng := rand.New(rand.NewSource(2))
	if m.Drop(rng) {
		t.Fatal("zero loss rate dropped a message")
	}
	m.LossRate = 1
	if !m.Drop(rng) {
		t.Fatal("loss rate 1 kept a message")
	}
	m.LossRate = 0.5
	drops := 0
	for i := 0; i < 10_000; i++ {
		if m.Drop(rng) {
			drops++
		}
	}
	if drops < 4500 || drops > 5500 {
		t.Fatalf("loss rate 0.5 dropped %d/10000", drops)
	}
}

func TestSpreadSites(t *testing.T) {
	sites := SpreadSites(20)
	if len(sites) != 20 {
		t.Fatalf("len = %d", len(sites))
	}
	counts := map[Site]int{}
	for _, s := range sites {
		counts[s]++
	}
	// 20 nodes over 9 sites: each site gets 2 or 3.
	for s, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("site %v has %d nodes", s, c)
		}
	}
}

// Property: latency samples are always positive and deterministic per seed.
func TestSampleLatencyProperties(t *testing.T) {
	m := Grid5000()
	f := func(seed int64, ai, bi uint8, size uint16) bool {
		a, b := Site(int(ai)%NumSites), Site(int(bi)%NumSites)
		d1 := m.SampleLatency(a, b, int(size), rand.New(rand.NewSource(seed)))
		d2 := m.SampleLatency(a, b, int(size), rand.New(rand.NewSource(seed)))
		return d1 > 0 && d1 == d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleLatency(b *testing.B) {
	m := Grid5000()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		m.SampleLatency(Rennes, Sophia, 512, rng)
	}
}
