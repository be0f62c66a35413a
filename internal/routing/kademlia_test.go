package routing

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/resolver"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

func buildKad(t testing.TB, seed int64, n int) (*Kademlia, *simnet.Scheduler) {
	t.Helper()
	sched := simnet.NewScheduler(seed)
	net := transport.NewNetwork(sched, netmodel.Grid5000())
	kad, err := BuildKademlia(sched, net, n)
	if err != nil {
		t.Fatal(err)
	}
	kad.Bootstrap()
	sched.Run(sched.Now() + 10*time.Minute)
	return kad, sched
}

func TestKademliaPublishLookup(t *testing.T) {
	kad, sched := buildKad(t, 42, 32)
	for k := 0; k < 8; k++ {
		kad.Publish((k*5)%32, fmt.Sprintf("key-%d", k))
	}
	sched.Run(sched.Now() + time.Minute)
	ok, maxHops := 0, 0
	for k := 0; k < 8; k++ {
		kad.Lookup((k*7+3)%32, fmt.Sprintf("key-%d", k), func(r Result) {
			if r.OK {
				ok++
				if r.Hops > maxHops {
					maxHops = r.Hops
				}
			}
		})
		sched.Run(sched.Now() + 30*time.Second)
	}
	if ok != 8 {
		t.Fatalf("lookups succeeded %d/8", ok)
	}
	// 32 nodes, K=8: everything resolves within a few iterations.
	if maxHops > 6 {
		t.Errorf("max lookup depth %d, want <= 6", maxHops)
	}
}

func TestKademliaMissReportsFailure(t *testing.T) {
	kad, sched := buildKad(t, 43, 16)
	fired, ok := false, true
	kad.Lookup(0, "never-published", func(r Result) { fired, ok = true, r.OK })
	sched.Run(sched.Now() + 2*time.Minute)
	if !fired {
		t.Fatal("miss lookup never called back")
	}
	if ok {
		t.Fatal("lookup of unpublished key reported OK")
	}
}

// TestKademliaEvictsUnansweringContact: a contact that never answers costs
// a lookup one RPC timeout, not the operation. The contact is planted in the
// originator's table at an address no transport is attached to, as the
// closest to the target, so the lookup queries it first. A miss cannot
// converge while that RPC is in flight, so the callback firing shows the
// timeout released it; the contact must be gone from its bucket.
func TestKademliaEvictsUnansweringContact(t *testing.T) {
	kad, sched := buildKad(t, 44, 16)
	nd := kad.nodes[0]
	target := KeyHash("never-published")
	ghost := kadContact{key: target ^ 1, id: ids.FromName(ids.KindPeer, "ghost"), addr: "sim://9/ghost"}
	b := BucketIndex(nd.key, ghost.key)
	// Planted directly: observe ignores a newcomer to a full bucket.
	nd.buckets[b] = append(nd.buckets[b], ghost)
	if nd.closest(target, 1)[0] != ghost {
		t.Fatal("the planted contact is not the closest to the target")
	}
	fired := 0
	var got Result
	kad.Lookup(0, "never-published", func(r Result) { fired, got = fired+1, r })
	sched.Run(sched.Now() + 2*time.Minute)
	if fired != 1 {
		t.Fatalf("the lookup called back %d times, want 1", fired)
	}
	if got.OK {
		t.Fatal("a lookup of an unpublished key reported OK")
	}
	if got.Latency < kadRPCTimeout {
		t.Fatalf("the lookup completed in %v, before the unanswered RPC could time out (%v)", got.Latency, kadRPCTimeout)
	}
	if slices.Contains(nd.buckets[b], ghost) {
		t.Fatal("the unanswering contact is still in its bucket")
	}
}

// TestKademliaDeterminism: identical seeds must replay identical outcomes
// (hop counts and latencies included) across two runs in one process.
func TestKademliaDeterminism(t *testing.T) {
	run := func() string {
		kad, sched := buildKad(t, 45, 24)
		for k := 0; k < 6; k++ {
			kad.Publish((k*5)%24, fmt.Sprintf("key-%d", k))
		}
		sched.Run(sched.Now() + time.Minute)
		out := ""
		for k := 0; k < 6; k++ {
			kad.Lookup((k*7+3)%24, fmt.Sprintf("key-%d", k), func(r Result) {
				out += fmt.Sprintf("%v/%d/%v;", r.OK, r.Hops, r.Latency)
			})
			sched.Run(sched.Now() + 30*time.Second)
		}
		return fmt.Sprintf("%s steps=%d", out, sched.Steps())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed kademlia runs diverged\n first:  %s\n second: %s", a, b)
	}
}

func TestBucketIndex(t *testing.T) {
	if got := BucketIndex(0, 1<<63); got != 0 {
		t.Errorf("most distant contact in bucket %d, want 0", got)
	}
	if got := BucketIndex(0, 1); got != 63 {
		t.Errorf("closest contact in bucket %d, want 63", got)
	}
}

// FuzzKademliaRPC feeds arbitrary bytes to the two places a Kademlia node
// reads another node's bytes: decodeContacts (a find response) and
// handleRPC's payload parse (a find or store query). Neither may panic, and
// whatever decodeContacts returns must survive encodeContacts and a second
// decode unchanged. The seeds are a real shortlist and the two real queries
// of a converged 16-node overlay.
func FuzzKademliaRPC(f *testing.F) {
	kad, sched := buildKad(f, 46, 16)
	callee, caller := kad.nodes[0], kad.nodes[1]
	shortlist := callee.closest(caller.key, kadK)
	if found, cs := decodeContacts(encodeContacts(true, shortlist)); !found || !slices.Equal(cs, shortlist) {
		f.Fatalf("a real shortlist of %d contacts decodes to %v, %d contacts", len(shortlist), found, len(cs))
	}
	f.Add(encodeContacts(true, shortlist))
	f.Add(encodeContacts(false, nil))
	f.Add([]byte(fmt.Sprintf("find %016x %s", caller.key, "key-1")))
	f.Add([]byte("store key-1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		found, cs := decodeContacts(data)
		again, cs2 := decodeContacts(encodeContacts(found, cs))
		if again != found || !slices.Equal(cs, cs2) {
			t.Fatalf("decode(encode(%v, %v)) = %v, %v", found, cs, again, cs2)
		}
		callee.handleRPC(&resolver.Query{Handler: KadHandlerName, Src: caller.id,
			SrcAddr: []byte(caller.tr.Addr()), Payload: data})
		sched.Run(sched.Now() + time.Second)
	})
}
