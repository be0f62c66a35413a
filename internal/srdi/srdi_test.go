package srdi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"jxta/internal/ids"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

func newIndex() (*Index, *simnet.Scheduler) {
	sched := simnet.NewScheduler(1)
	return New(sched.NewEnv("rdv")), sched
}

func tup(key, pub string, life time.Duration) Tuple {
	return Tuple{
		Key:           key,
		Publisher:     ids.FromName(ids.KindPeer, pub),
		PublisherAddr: transport.Addr("sim://rennes/" + pub),
		Lifetime:      life,
	}
}

// has reports whether at least one fresh publisher exists for key.
func has(x *Index, key string) bool { return len(x.Publishers(key)) > 0 }

func TestAddLookup(t *testing.T) {
	x, _ := newIndex()
	x.Add(tup("PeerNameTest", "e1", 0))
	if !has(x, "PeerNameTest") {
		t.Fatal("key not found")
	}
	pubs := x.Publishers("PeerNameTest")
	if len(pubs) != 1 || !pubs[0].Publisher.Equal(ids.FromName(ids.KindPeer, "e1")) {
		t.Fatalf("Publishers = %v", pubs)
	}
	if pubs[0].PublisherAddr != "sim://rennes/e1" {
		t.Fatal("address lost")
	}
	if has(x, "Nope") {
		t.Fatal("bogus key found")
	}
	if x.Size() != 1 || x.Keys() != 1 {
		t.Fatalf("Size=%d Keys=%d", x.Size(), x.Keys())
	}
}

func TestMultiplePublishersSameKey(t *testing.T) {
	x, _ := newIndex()
	x.Add(tup("k", "e1", 0))
	x.Add(tup("k", "e2", 0))
	if got := len(x.Publishers("k")); got != 2 {
		t.Fatalf("publishers = %d, want 2", got)
	}
	if x.Size() != 2 || x.Keys() != 1 {
		t.Fatalf("Size=%d Keys=%d", x.Size(), x.Keys())
	}
}

func TestReAddRefreshesNotDuplicates(t *testing.T) {
	x, sched := newIndex()
	x.Add(tup("k", "e1", time.Minute))
	sched.Run(45 * time.Second)
	x.Add(tup("k", "e1", time.Minute)) // refresh
	if x.Size() != 1 {
		t.Fatalf("Size = %d after re-add", x.Size())
	}
	sched.Run(90 * time.Second) // 45s after refresh: still alive
	if !has(x, "k") {
		t.Fatal("refreshed entry expired early")
	}
}

func TestExpiry(t *testing.T) {
	x, sched := newIndex()
	x.Add(tup("k", "e1", time.Minute))
	x.Add(tup("k", "e2", 0)) // immortal
	sched.Run(2 * time.Minute)
	pubs := x.Publishers("k")
	if len(pubs) != 1 || !pubs[0].Publisher.Equal(ids.FromName(ids.KindPeer, "e2")) {
		t.Fatalf("expired publisher still returned: %v", pubs)
	}
	if n := x.GC(); n != 1 {
		t.Fatalf("GC evicted %d, want 1", n)
	}
	if x.Size() != 1 {
		t.Fatalf("Size = %d after GC", x.Size())
	}
}

func TestGCRemovesEmptyKeys(t *testing.T) {
	x, sched := newIndex()
	x.Add(tup("k", "e1", time.Second))
	sched.Run(time.Minute)
	x.GC()
	if x.Keys() != 0 {
		t.Fatal("empty key survived GC")
	}
}

// Property: after a final GC, Size equals the number of live
// registrations, whatever mix of immortal and mortal adds, refreshes and
// expiries came before.
func TestSizeInvariantProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x, sched := newIndex()
		expires := map[[2]string]time.Duration{} // (key, publisher) → expiry; 0 = never
		for i := 0; i < int(ops); i++ {
			if rng.Intn(4) == 0 {
				sched.Run(sched.Now() + time.Minute)
				x.GC()
				continue
			}
			key := fmt.Sprintf("k%d", rng.Intn(4))
			pub := fmt.Sprintf("p%d", rng.Intn(4))
			life := time.Duration(rng.Intn(2)) * time.Minute
			x.Add(tup(key, pub, life))
			expires[[2]string{key, pub}] = 0
			if life > 0 {
				expires[[2]string{key, pub}] = sched.Now() + life
			}
		}
		x.GC()
		count := 0
		for _, at := range expires {
			if at == 0 || at > sched.Now() {
				count++
			}
		}
		return x.Size() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup5000(b *testing.B) {
	sched := simnet.NewScheduler(1)
	x := New(sched.NewEnv("rdv"))
	for i := 0; i < 5000; i++ {
		x.Add(tup(fmt.Sprintf("ResourceNamefake%d", i), fmt.Sprintf("e%d", i%50), 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Publishers("ResourceNamefake2500")
	}
}

func TestNumericTier(t *testing.T) {
	x, sched := newIndex()
	pubA := ids.FromName(ids.KindPeer, "a")
	pubB := ids.FromName(ids.KindPeer, "b")
	x.AddNumeric("ResourceRAM", 2048, pubA, "sim://rennes/a", 0)
	x.AddNumeric("ResourceRAM", 4096, pubB, "sim://rennes/b", time.Minute)

	in := x.RangePublishers("ResourceRAM", 2000, 5000)
	if len(in) != 2 {
		t.Fatalf("range [2000,5000] = %d publishers, want 2", len(in))
	}
	lo := x.RangePublishers("ResourceRAM", 0, 2048)
	if len(lo) != 1 || !lo[0].Publisher.Equal(pubA) {
		t.Fatalf("inclusive upper bound wrong: %v", lo)
	}
	if got := x.RangePublishers("ResourceRAM", 5000, 9000); len(got) != 0 {
		t.Fatalf("empty range matched %v", got)
	}
	if got := x.RangePublishers("ResourceCPU", 0, 1<<40); len(got) != 0 {
		t.Fatal("wrong attribute matched")
	}
	// Expiry applies.
	sched.Run(2 * time.Minute)
	if got := x.RangePublishers("ResourceRAM", 0, 1<<40); len(got) != 1 {
		t.Fatalf("expired numeric entry still served: %v", got)
	}
	if x.GC() == 0 {
		t.Fatal("GC missed the expired numeric entry")
	}
}

func TestNumericReplaceAndExpire(t *testing.T) {
	x, sched := newIndex()
	pub := ids.FromName(ids.KindPeer, "a")
	x.AddNumeric("ResourceRAM", 1024, pub, "sim://rennes/a", 0)
	x.AddNumeric("ResourceRAM", 8192, pub, "sim://rennes/a", time.Minute) // replaces
	if got := x.RangePublishers("ResourceRAM", 0, 2000); len(got) != 0 {
		t.Fatal("stale numeric value survived replacement")
	}
	if got := x.RangePublishers("ResourceRAM", 8000, 9000); len(got) != 1 {
		t.Fatal("replacement value missing")
	}
	sched.Run(2 * time.Minute)
	if n := x.GC(); n != 1 {
		t.Fatalf("GC evicted %d numeric entries, want the one replacement", n)
	}
	if got := x.RangePublishers("ResourceRAM", 0, 1<<40); len(got) != 0 || len(x.numeric) != 0 {
		t.Fatal("GC left the numeric tier populated")
	}
}

func TestTuplesExportRoundTrip(t *testing.T) {
	x, sched := newIndex()
	a := tup("PeerNameA", "pub-a", time.Hour)
	b := tup("PeerNameB", "pub-b", 0) // never expires
	c := tup("ResourceSize", "pub-c", time.Hour)
	c.NumAttr = "ResourceSize"
	c.NumValue = 42
	gone := tup("PeerNameGone", "pub-d", time.Minute)
	for _, tpl := range []Tuple{a, b, c, gone} {
		x.Add(tpl)
		if tpl.NumAttr != "" {
			x.AddNumeric(tpl.NumAttr, tpl.NumValue, tpl.Publisher, tpl.PublisherAddr, tpl.Lifetime)
		}
	}
	sched.Run(30 * time.Minute) // 'gone' expires, the rest keep half their life

	exported := x.Tuples()
	if len(exported) != 3 {
		t.Fatalf("exported %d tuples, want 3 (expired one excluded)", len(exported))
	}
	// Sorted by key, then publisher.
	for i := 1; i < len(exported); i++ {
		if exported[i-1].Key > exported[i].Key {
			t.Fatal("export not sorted by key")
		}
	}
	// Re-adding on a successor index reproduces both tiers.
	succSched := simnet.NewScheduler(2)
	succ := New(succSched.NewEnv("succ"))
	for _, tpl := range exported {
		succ.Add(tpl)
		if tpl.NumAttr != "" {
			succ.AddNumeric(tpl.NumAttr, tpl.NumValue, tpl.Publisher, tpl.PublisherAddr, tpl.Lifetime)
		}
	}
	if !has(succ, "PeerNameA") || !has(succ, "PeerNameB") {
		t.Fatal("successor index misses handed-off keys")
	}
	if has(succ, "PeerNameGone") {
		t.Fatal("successor index resurrected an expired tuple")
	}
	if got := succ.RangePublishers("ResourceSize", 40, 50); len(got) != 1 {
		t.Fatalf("numeric tier not reconstructed: %d matches", len(got))
	}
	// Remaining lifetime carried over: tuple a had 1h, 30 min elapsed.
	for _, tpl := range exported {
		if tpl.Key == "PeerNameA" && tpl.Lifetime != 30*time.Minute {
			t.Fatalf("remaining lifetime = %v, want 30m", tpl.Lifetime)
		}
		if tpl.Key == "PeerNameB" && tpl.Lifetime != 0 {
			t.Fatalf("never-expiring tuple exported lifetime %v", tpl.Lifetime)
		}
	}
}
