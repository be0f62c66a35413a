package cm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/ids"
	"jxta/internal/simnet"
)

func newCache() (*Cache, *simnet.Scheduler) {
	sched := simnet.NewScheduler(1)
	return New(sched.NewEnv("n")), sched
}

func res(name string, attrs ...advertisement.IndexField) *advertisement.Resource {
	return &advertisement.Resource{
		ResID: ids.FromName(ids.KindAdv, name),
		Name:  name,
		Attrs: attrs,
	}
}

func TestPutGet(t *testing.T) {
	c, _ := newCache()
	adv := res("node1")
	c.Put(adv, 0, true)
	got, ok := c.Get(adv.ID())
	if !ok || got.(*advertisement.Resource).Name != "node1" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get(ids.FromName(ids.KindAdv, "ghost")); ok {
		t.Fatal("ghost advertisement found")
	}
}

func TestPutReplacesAndReindexes(t *testing.T) {
	c, _ := newCache()
	a1 := res("old")
	c.Put(a1, 0, true)
	// Same ID, new name.
	a2 := &advertisement.Resource{ResID: a1.ResID, Name: "new"}
	c.Put(a2, 0, true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
	if got := c.Search("Resource", "Name", "old"); len(got) != 0 {
		t.Fatal("stale index entry for replaced advertisement")
	}
	if got := c.Search("Resource", "Name", "new"); len(got) != 1 {
		t.Fatal("new index entry missing")
	}
}

func TestSearchExact(t *testing.T) {
	c, _ := newCache()
	c.Put(res("a", advertisement.IndexField{Attr: "Site", Value: "rennes"}), 0, true)
	c.Put(res("b", advertisement.IndexField{Attr: "Site", Value: "lyon"}), 0, true)
	got := c.Search("Resource", "Site", "rennes")
	if len(got) != 1 || got[0].(*advertisement.Resource).Name != "a" {
		t.Fatalf("Search = %v", got)
	}
	if len(c.Search("Resource", "Site", "mars")) != 0 {
		t.Fatal("bogus value matched")
	}
	if len(c.Search("Peer", "Site", "rennes")) != 0 {
		t.Fatal("wrong type matched")
	}
}

func TestSearchWildcardPrefix(t *testing.T) {
	c, _ := newCache()
	for i := 0; i < 5; i++ {
		c.Put(res(fmt.Sprintf("node%d", i)), 0, true)
	}
	c.Put(res("other"), 0, true)
	got := c.Search("Resource", "Name", "node*")
	if len(got) != 5 {
		t.Fatalf("wildcard matched %d, want 5", len(got))
	}
	if len(c.Search("Resource", "Name", "*")) != 6 {
		t.Fatal("bare * should match all")
	}
}

func TestExpiry(t *testing.T) {
	c, sched := newCache()
	adv := res("ephemeral")
	c.Put(adv, time.Minute, false)
	if _, ok := c.Get(adv.ID()); !ok {
		t.Fatal("fresh advertisement missing")
	}
	sched.Run(2 * time.Minute)
	if _, ok := c.Get(adv.ID()); ok {
		t.Fatal("expired advertisement still served")
	}
	if got := c.Search("Resource", "Name", "ephemeral"); len(got) != 0 {
		t.Fatal("expired advertisement matched a search")
	}
	// GC actually removes it.
	if n := c.GC(); n != 1 {
		t.Fatalf("GC evicted %d, want 1", n)
	}
	if c.Len() != 0 {
		t.Fatal("record survived GC")
	}
}

func TestZeroLifetimeNeverExpires(t *testing.T) {
	c, sched := newCache()
	adv := res("forever")
	c.Put(adv, 0, true)
	sched.Run(1000 * time.Hour)
	if _, ok := c.Get(adv.ID()); !ok {
		t.Fatal("zero-lifetime advertisement expired")
	}
	if c.GC() != 0 {
		t.Fatal("GC evicted an immortal record")
	}
}

func TestFlushKeepsLocal(t *testing.T) {
	c, _ := newCache()
	local := res("mine")
	remote := res("theirs")
	c.Put(local, 0, true)
	c.Put(remote, 0, false)
	c.Flush()
	if _, ok := c.Get(local.ID()); !ok {
		t.Fatal("Flush dropped a local advertisement")
	}
	if _, ok := c.Get(remote.ID()); ok {
		t.Fatal("Flush kept a remote advertisement")
	}
	if got := c.Search("Resource", "Name", "theirs"); len(got) != 0 {
		t.Fatal("flushed advertisement still indexed")
	}
}

func TestRemove(t *testing.T) {
	c, _ := newCache()
	adv := res("x")
	c.Put(adv, 0, true)
	c.Remove(adv.ID())
	if c.Len() != 0 || len(c.Search("Resource", "Name", "x")) != 0 {
		t.Fatal("Remove incomplete")
	}
	c.Remove(adv.ID()) // idempotent
}

func TestLocalAdvertisements(t *testing.T) {
	c, sched := newCache()
	c.Put(res("l1"), 0, true)
	c.Put(res("l2"), time.Minute, true)
	c.Put(res("r1"), 0, false)
	if got := c.LocalAdvertisements(); len(got) != 2 {
		t.Fatalf("LocalAdvertisements = %d, want 2", len(got))
	}
	sched.Run(2 * time.Minute) // l2 expires
	if got := c.LocalAdvertisements(); len(got) != 1 {
		t.Fatalf("after expiry LocalAdvertisements = %d, want 1", len(got))
	}
}

func TestIndexSize(t *testing.T) {
	c, _ := newCache()
	if c.IndexSize() != 0 {
		t.Fatal("empty cache has index entries")
	}
	// A Resource indexes Name plus each attr.
	c.Put(res("a", advertisement.IndexField{Attr: "CPU", Value: "x"}), 0, true)
	if c.IndexSize() != 2 {
		t.Fatalf("IndexSize = %d, want 2", c.IndexSize())
	}
	c.Remove(ids.FromName(ids.KindAdv, "a"))
	if c.IndexSize() != 0 {
		t.Fatal("index entries leaked after Remove")
	}
}

func TestPeerAdvertisementSearch(t *testing.T) {
	// The paper's Table 1 example: a peer advertisement with Name=Test is
	// findable under key inputs ("Peer", "Name", "Test").
	c, _ := newCache()
	p := &advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, "t"), Name: "Test"}
	c.Put(p, 0, true)
	got := c.Search("Peer", "Name", "Test")
	if len(got) != 1 {
		t.Fatalf("peer advertisement not found: %v", got)
	}
}

// Property: after any sequence of Put/Remove, Search("Name", x) returns
// exactly the live advertisements named x.
func TestSearchConsistencyProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, _ := newCache()
		live := map[string]map[ids.ID]bool{}
		names := []string{"a", "b", "c"}
		for i := 0; i < int(ops); i++ {
			name := names[rng.Intn(len(names))]
			id := ids.FromName(ids.KindAdv, fmt.Sprintf("%s-%d", name, rng.Intn(5)))
			if rng.Intn(3) == 0 {
				c.Remove(id)
				if live[name] != nil {
					delete(live[name], id)
				}
			} else {
				adv := &advertisement.Resource{ResID: id, Name: name}
				// The same ID may previously be under another name.
				for _, m := range live {
					delete(m, id)
				}
				c.Put(adv, 0, true)
				if live[name] == nil {
					live[name] = map[ids.ID]bool{}
				}
				live[name][id] = true
			}
		}
		for _, name := range names {
			got := c.Search("Resource", "Name", name)
			if len(got) != len(live[name]) {
				return false
			}
			for _, adv := range got {
				if !live[name][adv.ID()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearchExactLargeCache(b *testing.B) {
	sched := simnet.NewScheduler(1)
	c := New(sched.NewEnv("n"))
	for i := 0; i < 5000; i++ {
		c.Put(res(fmt.Sprintf("fake%d", i)), 0, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Search("Resource", "Name", "fake2500")
	}
}

func TestSearchRange(t *testing.T) {
	c, sched := newCache()
	for i, ram := range []string{"1024", "2048", "4096", "not-a-number"} {
		c.Put(res(fmt.Sprintf("n%d", i),
			advertisement.IndexField{Attr: "RAM", Value: ram}), 0, true)
	}
	if got := c.SearchRange("Resource", "RAM", 2000, 5000); len(got) != 2 {
		t.Fatalf("range [2000,5000] = %d advs, want 2", len(got))
	}
	if got := c.SearchRange("Resource", "RAM", 1024, 1024); len(got) != 1 {
		t.Fatal("inclusive point range wrong")
	}
	if got := c.SearchRange("Resource", "CPU", 0, 1<<40); len(got) != 0 {
		t.Fatal("wrong attribute matched")
	}
	if got := c.SearchRange("Peer", "RAM", 0, 1<<40); len(got) != 0 {
		t.Fatal("wrong type matched")
	}
	// Expired advertisements excluded.
	c.Put(res("tmp", advertisement.IndexField{Attr: "RAM", Value: "3000"}),
		time.Minute, false)
	sched.Run(2 * time.Minute)
	if got := c.SearchRange("Resource", "RAM", 2999, 3001); len(got) != 0 {
		t.Fatal("expired advertisement matched range")
	}
}

func TestSearchRangeIndexMaintenance(t *testing.T) {
	c, _ := newCache()
	adv := res("a", advertisement.IndexField{Attr: "RAM", Value: "1000"})
	c.Put(adv, 0, true)
	if got := c.SearchRange("Resource", "RAM", 0, 2000); len(got) != 1 {
		t.Fatal("indexed adv not found")
	}
	// Replacing the adv with a new value must reindex, not duplicate.
	c.Put(res("a", advertisement.IndexField{Attr: "RAM", Value: "3000"}), 0, true)
	if got := c.SearchRange("Resource", "RAM", 0, 2000); len(got) != 0 {
		t.Fatal("stale numeric posting survived replacement")
	}
	if got := c.SearchRange("Resource", "RAM", 2500, 3500); len(got) != 1 {
		t.Fatal("replacement value not indexed")
	}
	// Removal cleans the posting list.
	c.Remove(adv.ID())
	if got := c.SearchRange("Resource", "RAM", 0, 1<<40); len(got) != 0 {
		t.Fatal("removed adv still matched")
	}
	if len(c.numIndex) != 0 {
		t.Fatalf("numIndex not cleaned: %v", c.numIndex)
	}
}

func TestSearchRangeMultiValueAdvDeduped(t *testing.T) {
	c, _ := newCache()
	c.Put(res("multi",
		advertisement.IndexField{Attr: "RAM", Value: "1000"},
		advertisement.IndexField{Attr: "RAM", Value: "1500"}), 0, true)
	if got := c.SearchRange("Resource", "RAM", 0, 2000); len(got) != 1 {
		t.Fatalf("multi-value adv returned %d times, want 1", len(got))
	}
}

// TestSearchRangeLinearFallback covers the unindexed-attr path: an attr
// that never carried a numeric value has no posting list, and SearchRange
// must agree with the full-store scan (both empty here).
func TestSearchRangeLinearFallback(t *testing.T) {
	c, _ := newCache()
	c.Put(res("n", advertisement.IndexField{Attr: "Tag", Value: "fast"}), 0, true)
	if _, ok := c.numIndex[numKey("Resource", "Tag")]; ok {
		t.Fatal("non-numeric value got a numeric posting")
	}
	if got := c.SearchRange("Resource", "Tag", 0, 1<<40); got != nil {
		t.Fatalf("fallback returned %v", got)
	}
	if got := c.searchRangeLinear("Resource", "Tag", 0, 1<<40); got != nil {
		t.Fatalf("linear scan returned %v", got)
	}
}

// Property: the indexed SearchRange agrees with the linear scan on random
// stores and random ranges (up to ordering).
func TestSearchRangeMatchesLinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, _ := newCache()
		attrs := []string{"RAM", "CPU", "Disk"}
		for i := 0; i < 30; i++ {
			var fields []advertisement.IndexField
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					fields = append(fields, advertisement.IndexField{
						Attr: a, Value: strconv.Itoa(rng.Intn(50))})
				}
			}
			c.Put(res(fmt.Sprintf("n%d", i), fields...), 0, true)
		}
		for trial := 0; trial < 10; trial++ {
			attr := attrs[rng.Intn(len(attrs))]
			lo := int64(rng.Intn(50))
			hi := lo + int64(rng.Intn(20))
			got := c.SearchRange("Resource", attr, lo, hi)
			want := c.searchRangeLinear("Resource", attr, lo, hi)
			if len(got) != len(want) {
				return false
			}
			seen := make(map[ids.ID]bool, len(want))
			for _, adv := range want {
				seen[adv.ID()] = true
			}
			for _, adv := range got {
				if !seen[adv.ID()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReturnsToZeroState: a cache is small by construction. Fresh, it holds
// no map and no arena, every read already answers "empty" and no-op deletes
// allocate nothing; it is quiescent exactly while it stores nothing.
func TestReturnsToZeroState(t *testing.T) {
	c, _ := newCache()
	zero := func(when string) {
		t.Helper()
		if c.byID != nil || c.index != nil || c.numIndex != nil || c.slab != nil || c.free != nil {
			t.Fatalf("%s: cache holds allocated state: byID=%v index=%v numIndex=%v slab=%d free=%d",
				when, c.byID != nil, c.index != nil, c.numIndex != nil, cap(c.slab), cap(c.free))
		}
		if !c.Quiescent() {
			t.Fatalf("%s: empty cache is not quiescent", when)
		}
	}
	zero("fresh")
	if c.Len() != 0 || c.IndexSize() != 0 || c.GC() != 0 ||
		len(c.Search("Resource", "Name", "*")) != 0 || len(c.SearchRange("Resource", "cpu", 0, 9)) != 0 ||
		len(c.LocalAdvertisements()) != 0 {
		t.Fatal("a read of the fresh cache found something")
	}
	c.Flush()
	c.Remove(ids.FromName(ids.KindAdv, "ghost"))
	zero("after reads and no-op deletes")

	c.Put(res("n1", advertisement.IndexField{Attr: "cpu", Value: "4"}), 0, false)
	if c.Quiescent() || len(c.SearchRange("Resource", "cpu", 0, 9)) != 1 {
		t.Fatal("a cache holding a record is quiescent, or lost it")
	}
	c.Flush()
	if !c.Quiescent() {
		t.Fatal("a flushed cache is not quiescent")
	}
}

// TestPutEncodedAndEncoded: the two entry points that let an advertisement
// pass through a cache without being decoded or encoded again. PutEncoded
// files wire bytes exactly as Put files the decoded value — same record,
// same index, same interned instance — and Encoded hands back the canonical
// bytes of a stored advertisement whichever way it came in.
func TestPutEncodedAndEncoded(t *testing.T) {
	store := advstore.New()
	sched := simnet.NewScheduler(1)
	pub := NewWithStore(sched.NewEnv("pub"), store)
	req := NewWithStore(sched.NewEnv("req"), store)
	adv := res("node7", advertisement.IndexField{Attr: "RAM", Value: "4096"})
	pub.Put(adv, time.Hour, true)
	wire := pub.Encoded(adv.ID())
	if want, _ := advertisement.EncodeXML(adv); !bytes.Equal(wire, want) {
		t.Fatalf("Encoded = %q, want %q", wire, want)
	}
	if &pub.Encoded(adv.ID())[0] != &wire[0] {
		t.Fatal("Encoded encoded the advertisement a second time")
	}
	if pub.Encoded(ids.FromName(ids.KindAdv, "absent")) != nil {
		t.Fatal("Encoded of an absent advertisement is not nil")
	}

	hits, _ := store.Stats()
	got, err := req.PutEncoded(wire, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != advertisement.Advertisement(adv) {
		t.Fatal("PutEncoded did not land on the instance the publisher interned")
	}
	if after, _ := store.Stats(); after != hits+1 {
		t.Fatalf("store hits went %d → %d, want one hit (recognised from the bytes)", hits, after)
	}
	if found := req.Search("Resource", "Name", "node7"); len(found) != 1 || found[0] != got {
		t.Fatalf("Search after PutEncoded found %v", found)
	}
	if found := req.SearchRange("Resource", "RAM", 4000, 5000); len(found) != 1 {
		t.Fatalf("SearchRange after PutEncoded found %v", found)
	}
	if !bytes.Equal(req.Encoded(adv.ID()), wire) {
		t.Fatal("Encoded differs between the two caches")
	}
	// A second copy replaces the first and gives its reference back.
	if _, err := req.PutEncoded(wire, time.Hour, false); err != nil || req.Len() != 1 {
		t.Fatal(err, req.Len())
	}
	if _, err := req.PutEncoded([]byte("<jxta:ResourceAdv><Id>junk</Id></jxta:ResourceAdv>"), 0, false); err == nil {
		t.Fatal("malformed advertisement accepted")
	}
	if _, err := req.PutEncoded([]byte("<unterminated"), 0, false); err == nil || req.Len() != 1 {
		t.Fatal("malformed document accepted or cache disturbed")
	}
	req.Flush()
	pub.Remove(adv.ID())
	if store.Len() != 0 {
		t.Fatalf("store still holds %d advertisements after every cache let go", store.Len())
	}
}

// TestSearchKeepsAttributeAndValueApart: an attribute and a value are two
// strings, not one. When the index key was their concatenation, a Resource
// named "bar" whose attribute "Na" is "mefoo" answered a search for Name =
// "foo", exactly and by prefix, since "Na"+"mefoo" is "Name"+"foo".
func TestSearchKeepsAttributeAndValueApart(t *testing.T) {
	c, _ := newCache()
	c.Put(res("bar", advertisement.IndexField{Attr: "Na", Value: "mefoo"}), 0, true)
	for _, value := range []string{"foo", "fo*"} {
		if got := c.Search("Resource", "Name", value); len(got) != 0 {
			t.Errorf("Search(Name = %q) found a Resource named %q", value, got[0].(*advertisement.Resource).Name)
		}
	}
	if got := c.Search("Resource", "Na", "me*"); len(got) != 1 {
		t.Errorf("Search(Na = me*) found %d, want the one Resource", len(got))
	}
	c.Put(res("foo"), 0, true)
	for _, value := range []string{"foo", "fo*"} {
		if got := c.Search("Resource", "Name", value); len(got) != 1 || got[0].(*advertisement.Resource).Name != "foo" {
			t.Errorf("Search(Name = %q) = %v, want the Resource named foo", value, got)
		}
	}
}

// TestRequesterCacheAllocs: what a searcher's cache does with one answered
// lookup — file the advertisement off the wire (the store already holds it,
// as the overlay's store holds a publisher's), find it, and flush it before
// the next lookup — allocates nothing once the cache is warm. The index is
// keyed by the advertisement's own strings, a key that indexes one
// advertisement holds its ID inline, and the search appends to the caller's
// array.
func TestRequesterCacheAllocs(t *testing.T) {
	store := advstore.New()
	sched := simnet.NewScheduler(1)
	pub := NewWithStore(sched.NewEnv("pub"), store)
	req := NewWithStore(sched.NewEnv("req"), store)
	adv := res("node-17")
	pub.Put(adv, time.Hour, true)
	wire := pub.Encoded(adv.ID())
	lookup := func() {
		if _, err := req.PutEncoded(wire, time.Hour, false); err != nil {
			t.Fatal(err)
		}
		var room [4]advertisement.Advertisement
		if found := req.AppendSearch(room[:0], "Resource", "Name", "node-17"); len(found) != 1 {
			t.Fatalf("found %d, want 1", len(found))
		}
		req.Flush()
	}
	lookup() // warm: the maps, the record arena, its free list
	if got := testing.AllocsPerRun(100, lookup); got != 0 {
		t.Fatalf("filing, finding and flushing an advertisement costs %.0f objects, want 0", got)
	}
}
