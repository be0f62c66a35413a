package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// TestPeerviewAllocsPerStepCeiling is ROADMAP item 6's allocation gate: the
// cost of one mention of a rendezvous advertisement in peerview gossip, as
// mallocs per scheduler step (overlay construction included) on a workload
// that is nothing but such gossip: 40 rendezvous in a chain, 10 virtual
// minutes, one fixed seed, the serial engine. The figure is a count, not a
// time, so it holds on any machine.
//
// Before advertisements were encoded once (PR 13) this workload took 25.2
// mallocs per step: every mention was encoded at the sender, decoded at the
// receiver and encoded again to be hashed. With interned handles carrying
// their canonical bytes it took 8.3, with the endpoint no longer cloning
// what the transport copies nor parsing the envelope into strings (PR 16)
// 4.86, and with delivered messages on loan — the transport copies into a
// recycled record, senders build in pooled messages — it took 3.13, most of
// it the overlay's construction; a ticker that re-arms one stored callback
// instead of a closure per tick makes it 3.01, and since then 1.85. Env.After
// returning its env.Event by value rather than boxed into an interface makes
// it 1.71. The ceiling is +15 %; a change that reintroduces a per-mention
// encode or a per-message object (the three-object clone: 4.86) lands over
// it. (The ticker's closure alone does not: it is 0.12 of a figure that is
// mostly construction.)
func TestPeerviewAllocsPerStepCeiling(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 1.97
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunPeerview(PeerviewSpec{
		R: 40, Topology: topology.Chain, Duration: 10 * time.Minute, Seed: 7, Shards: 1,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(res.Steps)
	t.Logf("%.2f mallocs/step over %d steps", got, res.Steps)
	if got > ceiling {
		t.Fatalf("peerview gossip costs %.2f mallocs per scheduler step, ceiling %.2f", got, ceiling)
	}
}

// TestDiscoveryAllocsPerStepCeiling is the same gate for the discovery path
// (ROADMAP item 6) on a small publish/lookup overlay: 4 rendezvous in a
// chain with 2 edges each, every edge publishing 25 resources at 2 virtual
// minutes, then one lookup every 30 s until minute 20, each followed by a
// cache flush. Most of those 18 minutes the periodic SRDI delta push walks a
// local cache that is fully pushed, which is the case it must make free: it
// used to build every tuple of every local advertisement before asking
// whether it had been pushed, at a failed strconv.ParseInt (two objects) per
// non-numeric field — 19.8 mallocs per step with that, 12.0 with a ledger of
// pushed keys that was asked about every field of every advertisement on
// every tick. Now the tick returns at once when nothing is owed, the lookup
// path builds no document tree and renders no string only to parse it at the
// next hop (5.45), no message is cloned into fresh objects on its way to a
// handler (4.13), and the lease renewals under it render and re-read nothing
// that did not change: 3.96, since then 3.52. Timer handles that are not
// boxed make it 3.33, a rendezvous that routes a lookup without allocating
// 3.20, and a cache that files, finds and encodes advertisements without a
// key or a tree of its own 2.45. The ceiling is +15 %; 3.20 fails it. This
// run has only 34 lookups: discovery.TestLookupHopAllocs holds a hop's cost
// exactly.
//
// The second ceiling is on messages per step, which a protocol change moves
// and a codec change must not: the run is seeded, so the figure (1,591
// messages over 3,824 steps, 0.416) repeats exactly; the ceiling is +15 %,
// rounded up. A push tick that re-sent what its rendezvous already has — 8
// edges, 34 ticks, 25 tuples each replicated once — would add thousands.
func TestDiscoveryAllocsPerStepCeiling(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 2.82
	const msgsPerStepCeiling = 0.48
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := deploy.Build(deploy.Spec{
		Seed: 7, NumRdv: 4, Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 2}, {AttachTo: 1, Count: 2}, {AttachTo: 2, Count: 2}, {AttachTo: 3, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(2 * time.Minute)
	for i, e := range o.Edges {
		for k := 0; k < 25; k++ {
			name := fmt.Sprintf("res-%d-%d", i, k)
			e.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
		}
	}
	lookups, found := 0, 0
	for at := 3 * time.Minute; at < 20*time.Minute; at += 30 * time.Second {
		o.Sched.Run(at)
		searcher := o.Edges[lookups%len(o.Edges)]
		target := fmt.Sprintf("res-%d-%d", (lookups+3)%len(o.Edges), lookups%25)
		lookups++
		if err := searcher.Discovery.Query("Resource", "Name", target, func(discovery.Result) {
			found++
			searcher.Discovery.FlushCache()
		}, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	o.Sched.Run(20 * time.Minute)
	steps := o.Sched.Steps()
	o.StopAll()
	runtime.ReadMemStats(&after)
	if found < lookups {
		t.Fatalf("%d of %d lookups answered", found, lookups)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(steps)
	msgs := o.Net.Stats().Messages
	t.Logf("%.2f mallocs/step over %d steps, %d lookups, %d messages", got, steps, lookups, msgs)
	if got > ceiling {
		t.Fatalf("publish/lookup costs %.2f mallocs per scheduler step, ceiling %.2f", got, ceiling)
	}
	if perStep := float64(msgs) / float64(steps); perStep > msgsPerStepCeiling {
		t.Fatalf("publish/lookup sends %.3f messages per scheduler step (%d over %d), ceiling %.2f", perStep, msgs, steps, msgsPerStepCeiling)
	}
}

// TestEdgeLeaseAllocsPerStepCeiling is the same gate for the lease path, the
// whole of what a large idle edge population does: 18 rendezvous with 30
// edges each, one-minute leases, the serial engine, counted
// from StartAll to 5 virtual minutes (construction is left out: at 540 edges
// it is half the run's mallocs and would hide the path being gated). It takes
// 0.23 mallocs per scheduler step; the ceiling is +15 %, rounded up. A request
// and its grant each used to be a fresh message cloned into three objects by
// the transport (2.44 on this overlay), and then still copied the requested
// and the granted duration out as strings and built a closure for each of the
// two timers per round trip (1.15); boxing the handle of each of those two
// timers into an interface made it 0.70. A renewal now allocates nothing
// (rendezvous.TestLeaseRenewalAllocs): what is left is the first lease of
// each edge.
func TestEdgeLeaseAllocsPerStepCeiling(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 0.27
	groups := make([]deploy.EdgeGroup, 18)
	for i := range groups {
		groups[i] = deploy.EdgeGroup{AttachTo: i, Count: 30}
	}
	o, err := deploy.Build(deploy.Spec{
		Seed: 7, NumRdv: len(groups), Topology: topology.Chain,
		Lease: rendezvous.Config{LeaseDuration: time.Minute}, Edges: groups,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.StopAll()
	o.StartAll()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o.Sched.Run(5 * time.Minute)
	runtime.ReadMemStats(&after)
	for _, e := range o.Edges {
		if _, ok := e.Rendezvous.ConnectedRdv(); !ok {
			t.Fatalf("edge %s holds no lease", e.Config.Name)
		}
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(o.Sched.Steps())
	t.Logf("%.2f mallocs/step over %d steps", got, o.Sched.Steps())
	if got > ceiling {
		t.Fatalf("the lease path costs %.2f mallocs per scheduler step, ceiling %.2f", got, ceiling)
	}
}

// TestQuiescentEdgeHeapCeiling is the memory gate: what one leased, idle edge
// keeps on the live heap, measured as RunScale's heap_bytes_per_edge over 18
// rendezvous and 540 edges at 5 virtual minutes — the quick-mode memory point
// of `jxta-bench -exp scale`. It is the repository's one memory gate, and it
// runs the default configuration: a node holds no metrics registry between
// scrapes, so there is no lighter one to choose (4,173 B/edge; 41,666 when
// every node held a registry).
//
// The figure is ~5.1 KB and it is small by construction: the endpoint keeps
// its tables in exact-size slices, the six services above it allocate no map
// until first written and hold none while idle, and the deployment releases
// the edge's RNG register once its peer ID is drawn. TestIdleEdgeHoldsNothing
// holds that property structurally (any allocated map or resident register on
// an idle edge fails it); this test is the byte-level backstop. The ceiling is
// +15 % of the measurement (5,145 B): putting the endpoint's and the clamp's
// maps back costs ~1.1 KB/edge and keeping the register ~5.4 KB, and either
// lands over it (measured at PR 14: 6,458 and 10,829 B/edge).
//
// Since delivered messages are on loan the figure is 5,444 B (5,485–5,494
// when this test is the process's first run): the ~380 B over the 5,061 of the
// services themselves are the transport's free list of delivery records, which
// is per shard, not per edge — at most 128 records on each of this run's two
// shards, spread here over 558 peers. It does not grow with the population:
// the benchmark's edges-10k workload (10,250 peers) reads 5,896 B/peer against
// 5,957 before. A list of 256 read 5,855 (5,895–5,906) and left this gate no
// room, which is one reason the bound is 128 (transport.maxFreeDeliveries).
func TestQuiescentEdgeHeapCeiling(t *testing.T) {
	const ceiling = 5900
	res, err := RunScale(ScaleSpec{
		R: 18, Edges: 540, Shards: 2,
		Duration: 5 * time.Minute, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f B/edge, %d/%d edges leased", res.HeapBytesPerEdge, res.Leased, res.Spec.Edges)
	if res.Leased != res.Spec.Edges {
		t.Fatalf("%d of %d edges leased at steady state", res.Leased, res.Spec.Edges)
	}
	if res.HeapBytesPerEdge == 0 || res.HeapBytesPerEdge > ceiling {
		t.Fatalf("a quiescent edge holds %.0f B of live heap, ceiling %d", res.HeapBytesPerEdge, ceiling)
	}
}

// skipUnderRace: the mallocs-per-step gates sit 15 % above paths that build
// every message in a pooled message.Out, and under the race detector
// sync.Pool drops a quarter of what is put into it, on purpose.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
}
