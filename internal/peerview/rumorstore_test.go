package peerview

import (
	"fmt"
	"slices"
	"testing"

	"jxta/internal/ids"
	"jxta/internal/transport"
)

func testRumor(i int) Rumor {
	return NewRumor(Seed{
		ID:   ids.FromName(ids.KindPeer, fmt.Sprintf("rumor-%d", i)),
		Addr: transport.Addr(fmt.Sprintf("sim://0/rumor-%d", i)),
	})
}

func TestRumorStoreSweepEvictsAfterNMisses(t *testing.T) {
	rs := NewRumorStore()
	dead, alive := testRumor(1), testRumor(2)
	rs.Add(dead)
	rs.Add(alive)
	live := func(id ids.ID) bool { return id.Equal(alive.ID) }
	for i := 0; i < 2; i++ {
		if n := rs.Sweep(3, live); n != 0 {
			t.Fatalf("sweep %d evicted %d rumors before deadAfter", i, n)
		}
	}
	if n := rs.Sweep(3, live); n != 1 {
		t.Fatalf("third sweep evicted %d, want 1", n)
	}
	if rs.Len() != 1 || !rs.All()[0].ID.Equal(alive.ID) {
		t.Fatalf("store after sweep: %v", rs.All())
	}
}

func TestRumorStoreAddResetsAgingClock(t *testing.T) {
	rs := NewRumorStore()
	r := testRumor(1)
	rs.Add(r)
	deadToAll := func(ids.ID) bool { return false }
	rs.Sweep(2, deadToAll)
	rs.Add(r) // re-gossiped: one miss on the books must be forgiven
	rs.Sweep(2, deadToAll)
	if rs.Len() != 1 {
		t.Fatal("re-added rumor evicted after a single post-add miss")
	}
	rs.Sweep(2, deadToAll)
	if rs.Len() != 0 {
		t.Fatal("rumor survived two consecutive misses after re-add")
	}
}

func TestRumorStoreSweepDisabled(t *testing.T) {
	rs := NewRumorStore()
	rs.Add(testRumor(1))
	for i := 0; i < 10; i++ {
		if n := rs.Sweep(0, func(ids.ID) bool { return false }); n != 0 {
			t.Fatalf("disabled sweep evicted %d", n)
		}
	}
	if rs.Len() != 1 {
		t.Fatal("deadAfter=0 must never evict")
	}
}

func TestRumorStoreSweepKeepsWindowRotation(t *testing.T) {
	// Evicting an entry behind the cursor must not make the rotation skip
	// survivors: after the sweep, a full cycle of NextWindow(1) calls still
	// visits every remaining rumor.
	rs := NewRumorStore()
	for i := 0; i < 6; i++ {
		rs.Add(testRumor(i))
	}
	rs.NextWindow(3) // advance the cursor into the middle of the store
	first := rs.All()[0].ID
	live := func(id ids.ID) bool { return !id.Equal(first) }
	if n := rs.Sweep(1, live); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	seen := make(map[ids.ID]bool)
	for i := 0; i < rs.Len(); i++ {
		head, wrapped := rs.NextWindow(1)
		for _, r := range slices.Concat(head, wrapped) {
			seen[r.ID] = true
		}
	}
	if len(seen) != rs.Len() {
		t.Fatalf("one rotation cycle visited %d of %d rumors", len(seen), rs.Len())
	}
}

// TestRumorStoreOrderIsTheIndex: the store keeps no map beside its ordered
// slice — binary search over the ascending IDs finds a rumor — so an edge's
// store needs no freezing. Inserts in any order come out ascending, a known
// ID refreshes its address in place, and the aging counters exist only once
// a sweep has charged a miss.
func TestRumorStoreOrderIsTheIndex(t *testing.T) {
	rs := NewRumorStore()
	for _, i := range []int{5, 1, 4, 2, 3, 0} {
		if !rs.Add(testRumor(i)) {
			t.Fatalf("adding rumor %d reported no change", i)
		}
	}
	if rs.Add(testRumor(4)) || rs.Add(testRumor(0)) {
		t.Fatal("re-adding an unchanged rumor reported a change")
	}
	if rs.Len() != 6 {
		t.Fatalf("store holds %d rumors, want 6", rs.Len())
	}
	for i, r := range rs.All() {
		if i > 0 && !rs.All()[i-1].ID.Less(r.ID) {
			t.Fatalf("order broken at %d", i)
		}
		if at, ok := rs.find(r.ID); !ok || at != i {
			t.Fatalf("find(%s) = %d, %v; want %d", r.ID.Short(), at, ok, i)
		}
	}
	if _, ok := rs.find(testRumor(9).ID); ok {
		t.Fatal("found a rumor never added")
	}
	moved := NewRumor(Seed{ID: testRumor(3).ID, Addr: "sim://0/moved"})
	if !rs.Add(moved) || rs.Len() != 6 {
		t.Fatal("a new address for a known ID must refresh it in place")
	}
	if at, _ := rs.find(moved.ID); rs.All()[at].Addr != moved.Addr {
		t.Fatal("address not refreshed")
	}
	if rs.misses != nil {
		t.Fatal("aging counters allocated before any sweep charged a miss")
	}
	rs.Sweep(2, func(ids.ID) bool { return true })
	if rs.misses != nil {
		t.Fatal("a sweep over live identities allocated the aging counters")
	}
	rs.Sweep(2, func(ids.ID) bool { return false })
	if len(rs.misses) != 6 {
		t.Fatalf("%d aging counters after one all-dead sweep, want 6", len(rs.misses))
	}
}
