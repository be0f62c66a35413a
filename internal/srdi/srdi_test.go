package srdi

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
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

// numTup is tup for an integer-valued field: the key embeds the value, as
// discovery's tuples do, and the tuple carries it for range queries.
func numTup(typeAttr string, value int64, pub string, life time.Duration) Tuple {
	t := tup(typeAttr+strconv.FormatInt(value, 10), pub, life)
	t.NumAttr, t.NumValue = typeAttr, value
	return t
}

func TestNumericTier(t *testing.T) {
	x, sched := newIndex()
	pubA := ids.FromName(ids.KindPeer, "a")
	x.Add(numTup("ResourceRAM", 2048, "a", 0))
	x.Add(numTup("ResourceRAM", 4096, "b", time.Minute))
	x.Add(tup("ResourceNamenode", "c", 0)) // no integer value

	in := x.RangePublishers("ResourceRAM", 2000, 5000)
	if len(in) != 2 {
		t.Fatalf("range [2000,5000] = %d publishers, want 2", len(in))
	}
	lo := x.RangePublishers("ResourceRAM", 0, 2048)
	if len(lo) != 1 || !lo[0].Publisher.Equal(pubA) || lo[0].PublisherAddr != "sim://rennes/a" {
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

// TestRangeFindsEveryRegistration: a publisher whose advertisements carry
// two values under one attribute is found by a range query for either,
// whichever it registered last, and is reported once.
func TestRangeFindsEveryRegistration(t *testing.T) {
	pub := ids.FromName(ids.KindPeer, "a")
	for _, values := range [][2]int64{{2048, 4096}, {4096, 2048}} {
		x, _ := newIndex()
		for _, v := range values {
			x.Add(numTup("ResourceRAM", v, "a", time.Hour))
		}
		for _, r := range [][2]int64{{3072, math.MaxInt64}, {0, 3000}, {0, math.MaxInt64}} {
			got := x.RangePublishers("ResourceRAM", r[0], r[1])
			if len(got) != 1 || !got[0].Publisher.Equal(pub) {
				t.Errorf("values added %v: range %v = %v, want the publisher once", values, r, got)
			}
		}
	}
}

// TestNumericReplaceAndExpire: a publisher's new value does not overwrite its
// old one, exactly as a new exact-match key does not. Each registration
// answers until its own tuple expires — the publisher's own cache filters
// what it answers — and GC removes each with its tuple. Of the publisher's
// matching registrations, the one that lives longest lends the result its
// address and remaining lifetime.
func TestNumericReplaceAndExpire(t *testing.T) {
	x, sched := newIndex()
	x.Add(numTup("ResourceRAM", 1024, "a", time.Minute))
	sched.Run(30 * time.Second)
	moved := numTup("ResourceRAM", 8192, "a", time.Minute)
	moved.PublisherAddr = "sim://rennes/a2"
	x.Add(moved)
	if got := x.RangePublishers("ResourceRAM", 0, 2000); len(got) != 1 || got[0].PublisherAddr != "sim://rennes/a" {
		t.Fatalf("old value lost before its tuple expired: %v", got)
	}
	if got := x.RangePublishers("ResourceRAM", 8000, 9000); len(got) != 1 {
		t.Fatal("new value missing")
	}
	if got := x.RangePublishers("ResourceRAM", 0, 1<<40); len(got) != 1 ||
		got[0].PublisherAddr != "sim://rennes/a2" || got[0].Lifetime != time.Minute {
		t.Fatalf("both values: %v, want one result from the newer registration", got)
	}
	sched.Run(75 * time.Second) // the 1024 tuple expired at 60 s
	if got := x.RangePublishers("ResourceRAM", 0, 2000); len(got) != 0 || has(x, "ResourceRAM1024") {
		t.Fatal("expired value still served")
	}
	if got := x.RangePublishers("ResourceRAM", 8000, 9000); len(got) != 1 {
		t.Fatal("live value lost with the expired one")
	}
	if n := x.GC(); n != 1 {
		t.Fatalf("GC evicted %d registrations, want the expired one", n)
	}
	sched.Run(2 * time.Minute)
	if n := x.GC(); n != 1 || x.Size() != 0 || x.Keys() != 0 {
		t.Fatalf("GC evicted %d, left Size %d Keys %d", n, x.Size(), x.Keys())
	}
	if got := x.RangePublishers("ResourceRAM", 0, 1<<40); len(got) != 0 {
		t.Fatal("emptied index still answers a range")
	}
}

func TestTuplesExportRoundTrip(t *testing.T) {
	x, sched := newIndex()
	a := tup("PeerNameA", "pub-a", time.Hour)
	b := tup("PeerNameB", "pub-b", 0) // never expires
	c := numTup("ResourceSize", 42, "pub-c", time.Hour)
	gone := tup("PeerNameGone", "pub-d", time.Minute)
	for _, tpl := range []Tuple{a, b, c, gone} {
		x.Add(tpl)
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
	// Re-adding on a successor index reproduces it, integer values included.
	succSched := simnet.NewScheduler(2)
	succ := New(succSched.NewEnv("succ"))
	for _, tpl := range exported {
		succ.Add(tpl)
	}
	if !has(succ, "PeerNameA") || !has(succ, "PeerNameB") {
		t.Fatal("successor index misses handed-off keys")
	}
	if has(succ, "PeerNameGone") {
		t.Fatal("successor index resurrected an expired tuple")
	}
	if got := succ.RangePublishers("ResourceSize", 40, 50); len(got) != 1 {
		t.Fatalf("integer value not reconstructed: %d matches", len(got))
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
