package discovery_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/simnet"
	"jxta/internal/srdi"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// buildOverlay deploys r rendezvous + 2 edges (publisher on rdv0, searcher
// on the last rdv), lets peerviews converge and leases settle.
func buildOverlay(t testing.TB, r int, seed int64, converge time.Duration) (*deploy.Overlay, *node.Node, *node.Node) {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		NumRdv:   r,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "publisher"},
			{AttachTo: r - 1, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(converge)
	return o, o.Edges[0], o.Edges[1]
}

func TestPublishAndDiscoverAcrossOverlay(t *testing.T) {
	o, pub, search := buildOverlay(t, 6, 1, 10*time.Minute)
	adv := &advertisement.Peer{PeerID: pub.ID, Name: "Test",
		Addresses: []string{string(pub.Endpoint.Addr())}}
	pub.Discovery.Publish(adv, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute) // SRDI push + replication

	var got *discovery.Result
	err := search.Discovery.Query("Peer", "Name", "Test", func(r discovery.Result) {
		got = &r
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if got == nil {
		t.Fatal("discovery never completed")
	}
	if len(got.Advs) != 1 {
		t.Fatalf("got %d advertisements", len(got.Advs))
	}
	p, ok := got.Advs[0].(*advertisement.Peer)
	if !ok || p.Name != "Test" || !p.PeerID.Equal(pub.ID) {
		t.Fatalf("wrong advertisement: %+v", got.Advs[0])
	}
	if !got.From.Equal(pub.ID) {
		t.Fatalf("response came from %s, want the publisher", got.From.Short())
	}
	if got.Elapsed <= 0 {
		t.Fatal("elapsed time not measured")
	}
}

func TestPublishMessageComplexity(t *testing.T) {
	// §3.3: publish is O(1) — at most 2 messages (edge -> rdv -> replica).
	o, pub, _ := buildOverlay(t, 6, 2, 10*time.Minute)
	before := o.Net.Stats().Messages
	adv := &advertisement.Peer{PeerID: pub.ID, Name: "Complexity"}
	pub.Discovery.Publish(adv, 0)
	o.Sched.Run(o.Sched.Now() + 10*time.Second)
	// The peerview keeps gossiping during the window; count only SRDI and
	// related push messages by using a quiet protocol overlay instead:
	// tolerate the background and assert the *publish-specific* bound via
	// the publisher's stats.
	msgs := o.Net.Stats().Messages - before
	// Peer adv has 2 index fields, each field may replicate once:
	// edge->rdv (1) + up to 2 replications = 3 messages upper bound.
	// Background peerview traffic in 10s: each rdv sends <= ~6 msgs per
	// 30s round; allow a generous envelope and verify we did not flood.
	if msgs > 60 {
		t.Fatalf("publish generated %d messages, expected a handful", msgs)
	}
	if pub.Discovery.Stats.QueriesSent != 0 {
		t.Fatal("publish issued queries")
	}
}

func TestConsistentLookupUsesNoWalk(t *testing.T) {
	o, pub, search := buildOverlay(t, 8, 3, 12*time.Minute)
	pub.Discovery.Publish(&advertisement.Peer{PeerID: pub.ID, Name: "Test"}, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	done := false
	search.Discovery.Query("Peer", "Name", "Test", func(discovery.Result) { done = true }, nil)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if !done {
		t.Fatal("query failed")
	}
	var walks uint64
	for _, r := range o.Rdvs {
		walks += r.Discovery.Stats.WalksStarted
	}
	if walks != 0 {
		t.Fatalf("consistent overlay still walked %d times", walks)
	}
}

func TestWalkFallbackFindsMisplacedTuple(t *testing.T) {
	o, _, search := buildOverlay(t, 8, 4, 12*time.Minute)
	// Choose a key whose replica is NOT rdv2, then plant the tuple only on
	// rdv2's index: the replica lookup must miss and the walk must find it.
	holder := o.Rdvs[2]
	view := holder.PeerView.View()
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("misplaced%d", i)
		if !discovery.ReplicaPeer(view, "Resource"+"Name"+key).Equal(holder.ID) {
			break
		}
	}
	// The "publisher" is the searcher edge, holding the advertisement as a
	// non-local cache entry: the deliver stage can answer from it, but the
	// SRDI pusher will not advertise it — so the only index entry in the
	// whole overlay is the one planted on the wrong rendezvous below.
	adv := &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, key), Name: key}
	search.Cache.Put(adv, 0, false)
	holder.Discovery.Index().Add(srdi.Tuple{
		Key:           "ResourceName" + key,
		Publisher:     search.ID,
		PublisherAddr: search.Endpoint.Addr(),
	})
	var got *discovery.Result
	// Query through a different edge so the searcher acts purely as the
	// publisher side.
	other, err := o.AddEdge("probe", 4)
	if err != nil {
		t.Fatal(err)
	}
	other.Start()
	o.Sched.Run(o.Sched.Now() + time.Minute) // lease
	err = other.Discovery.Query("Resource", "Name", key, func(r discovery.Result) {
		got = &r
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	if got == nil {
		t.Fatal("walk fallback never delivered the advertisement")
	}
	var walks, walkHits uint64
	for _, r := range o.Rdvs {
		walks += r.Discovery.Stats.WalksStarted
		walkHits += r.Discovery.Stats.WalkHits
	}
	if walks == 0 || walkHits == 0 {
		t.Fatalf("walks=%d hits=%d, expected the fallback path", walks, walkHits)
	}
}

func TestLocalCacheHitAndFlush(t *testing.T) {
	o, pub, search := buildOverlay(t, 4, 5, 10*time.Minute)
	pub.Discovery.Publish(&advertisement.Peer{PeerID: pub.ID, Name: "Test"}, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	first := false
	search.Discovery.Query("Peer", "Name", "Test", func(discovery.Result) { first = true }, nil)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if !first {
		t.Fatal("first query failed")
	}
	// Second query: cached, answered locally with zero elapsed time.
	var second *discovery.Result
	search.Discovery.Query("Peer", "Name", "Test", func(r discovery.Result) { second = &r }, nil)
	o.Sched.Run(o.Sched.Now() + time.Second)
	if second == nil || !second.From.Equal(search.ID) || second.Elapsed != 0 {
		t.Fatalf("cached query not served locally: %+v", second)
	}
	// After a flush the query must travel again.
	search.Discovery.FlushCache()
	var third *discovery.Result
	search.Discovery.Query("Peer", "Name", "Test", func(r discovery.Result) { third = &r }, nil)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if third == nil || third.From.Equal(search.ID) || third.Elapsed == 0 {
		t.Fatalf("post-flush query did not travel: %+v", third)
	}
}

func TestQueryForMissingResourceTimesOut(t *testing.T) {
	o, _, search := buildOverlay(t, 4, 6, 10*time.Minute)
	timedOut := false
	search.Discovery.Query("Peer", "Name", "Nonexistent",
		func(discovery.Result) { t.Error("response for missing resource") },
		func() { timedOut = true })
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	if !timedOut {
		t.Fatal("missing-resource query never timed out")
	}
}

// TestQueryCompletesOnItsFirstAnswer: two publishers (an edge and a
// rendezvous) hold the same name, so two answers come back; Query hands the
// caller the first only and never reports a time-out, which lets a
// closed-loop reader issue its next lookup from cb without a guard against a
// second call. QueryAll, on the same overlay, hears both.
func TestQueryCompletesOnItsFirstAnswer(t *testing.T) {
	o, pub, search := buildOverlay(t, 6, 5, 10*time.Minute)
	for i, n := range []*node.Node{pub, o.Rdvs[2]} {
		n.Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("twice-%d", i)), Name: "Twice"}, 0)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	answers, timeouts := 0, 0
	search.Discovery.Query("Resource", "Name", "Twice", func(discovery.Result) { answers++ }, func() { timeouts++ })
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	if answers != 1 || timeouts != 0 {
		t.Fatalf("Query: %d answers, %d time-outs; want 1 and 0", answers, timeouts)
	}
	search.Discovery.FlushCache()
	from := map[ids.ID]bool{}
	search.Discovery.QueryAll("Resource", "Name", "Twice", func(r discovery.Result) { from[r.From] = true }, nil)
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	if len(from) != 2 {
		t.Fatalf("QueryAll heard %d publishers, want both", len(from))
	}
}

func TestDisconnectedEdgeQueryFails(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{Seed: 7, NumRdv: 1, Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Do not start anything: no lease.
	edge := o.Edges[0]
	err = edge.Discovery.Query("Peer", "Name", "Test", func(discovery.Result) {}, nil)
	if err != discovery.ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestRepublishAfterRdvFailover(t *testing.T) {
	// The publisher's rendezvous dies. The edge must fail over to its
	// backup seed, re-push its SRDI table, and stay discoverable — the
	// paper's §3.3 note that edges publish their tuples whenever they
	// connect to a new rendezvous.
	o, err := deploy.Build(deploy.Spec{
		Seed:     9,
		NumRdv:   4,
		Topology: topology.Chain,
		Lease: rendezvous.Config{
			LeaseDuration:   2 * time.Minute,
			ResponseTimeout: 10 * time.Second,
		},
		Edges: []deploy.EdgeGroup{{AttachTo: 3, Count: 1, Prefix: "searcher"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)

	// A dual-seed publisher, built directly (deploy.AddEdge wires one seed).
	e := o.Sched.NewEnv("pub2")
	tr, err := o.Net.Attach("pub2", netmodel.Rennes)
	if err != nil {
		t.Fatal(err)
	}
	pub := node.New(e, tr, node.Config{
		Name:  "pub2",
		Role:  node.Edge,
		Seeds: []peerview.Seed{o.Rdvs[1].Seed(), o.Rdvs[2].Seed()},
		Lease: rendezvous.Config{
			LeaseDuration:   2 * time.Minute,
			ResponseTimeout: 10 * time.Second,
		},
	})
	pub.Start()
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if rdv, ok := pub.Rendezvous.ConnectedRdv(); !ok || !rdv.Equal(o.Rdvs[1].ID) {
		t.Fatal("publisher not connected to its first seed")
	}
	pub.Discovery.Publish(&advertisement.Peer{PeerID: pub.ID, Name: "Survivor"}, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute)

	// Kill the publisher's rendezvous; wait past lease renewal + failover.
	o.KillRdv(1)
	o.Sched.Run(o.Sched.Now() + 25*time.Minute)
	if rdv, ok := pub.Rendezvous.ConnectedRdv(); !ok || !rdv.Equal(o.Rdvs[2].ID) {
		got := "none"
		if ok {
			got = rdv.Short()
		}
		t.Fatalf("publisher did not fail over (connected to %s)", got)
	}

	searcher := o.Edges[0]
	searcher.Discovery.FlushCache()
	var got *discovery.Result
	searcher.Discovery.Query("Peer", "Name", "Survivor", func(r discovery.Result) {
		got = &r
	}, nil)
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	if got == nil || len(got.Advs) == 0 {
		t.Fatal("resource not discoverable after rendezvous failover")
	}
}

// TestReturnsToZeroState: the discovery service is small by construction. A
// pure consumer — an edge that only looks things up — never allocates a map,
// before, during or after a lookup. A publisher whose pushes have reached its
// rendezvous holds no ledger either: the ledger is the debt, and it is paid.
// Once the publisher answers a query it holds the delivery dedup set; that
// is state. A rendezvous routes each query once and holds no dedup set. The
// queries a rendezvous parks behind their scan cost drain by themselves.
func TestReturnsToZeroState(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed: 41, NumRdv: 6, Topology: topology.Chain,
		Discovery: discovery.DefaultConfig(), // a non-zero ScanCost
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "publisher"},
			{AttachTo: 5, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)
	pub, search := o.Edges[0], o.Edges[1]
	tables := func(who string, s *discovery.Service, unpushed, cost, seen int) {
		t.Helper()
		if u, c, sn := s.Tables(); u != unpushed || c != cost || sn != seen {
			t.Fatalf("%s: unpushed=%d parked=%d seen=%d, want %d, %d, %d (-1: not allocated, never parked)",
				who, u, c, sn, unpushed, cost, seen)
		}
	}
	tables("fresh publisher", pub.Discovery, -1, -1, -1)
	tables("fresh searcher", search.Discovery, -1, -1, -1)

	pub.Discovery.Publish(&advertisement.Peer{PeerID: pub.ID, Name: "Zero"}, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	found := false
	if err := search.Discovery.Query("Peer", "Name", "Zero", func(discovery.Result) { found = true }, nil); err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if !found {
		t.Fatal("lookup failed")
	}
	tables("searcher after a lookup", search.Discovery, -1, -1, -1)

	tables("publisher that has pushed everything and answered once", pub.Discovery, -1, -1, 1)

	used := 0
	for _, r := range o.Rdvs {
		_, parked, seen := r.Discovery.Tables()
		if seen != -1 {
			t.Fatalf("rendezvous %s holds a dedup set of %d queries", r.Config.Name, seen)
		}
		if parked == 0 {
			used++ // parked a query behind its scan cost, drained since
		} else if parked > 0 {
			t.Fatalf("rendezvous %s still holds %d parked queries", r.Config.Name, parked)
		}
	}
	if used == 0 {
		t.Fatal("no rendezvous ever parked a query: the test exercised nothing")
	}
}

// TestCachedResponsesExpire: an answer a searcher caches lives
// advertisement.DefaultExpiration. Every read skips it from then on, and one
// push interval later the searcher's periodic tick has evicted it from the
// cache and given its interned advertisement back to the store — on an edge
// and on a rendezvous alike. Each node interns into a store of its own, so
// the searcher's store holds the answer only through its cache.
func TestCachedResponsesExpire(t *testing.T) {
	sched := simnet.NewScheduler(5)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	mk := func(name string, role node.Role, seeds ...peerview.Seed) *node.Node {
		tr, err := net.Attach(name, netmodel.Rennes)
		if err != nil {
			t.Fatal(err)
		}
		n := node.New(sched.NewEnv(name), tr, node.Config{
			Name: name, Role: role, Seeds: seeds, Discovery: discovery.DefaultConfig(), AdvStore: advstore.New(),
		})
		n.Start()
		return n
	}
	rdv := mk("rdv", node.Rendezvous)
	pub, edge := mk("pub", node.Edge, rdv.Seed()), mk("searcher", node.Edge, rdv.Seed())
	sched.Run(time.Minute)
	// The publisher's copy outlives the searchers' by far: only theirs expire.
	pub.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "gpu"), Name: "gpu"}, 100*time.Hour)
	sched.Run(sched.Now() + time.Minute)
	for _, searcher := range []*node.Node{edge, rdv} {
		held, stored := searcher.Cache.Len(), searcher.Config.AdvStore.Len()
		var answered time.Duration
		err := searcher.Discovery.QueryRemote("Resource", "Name", "gpu", func(discovery.Result) { answered = sched.Now() }, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched.Run(sched.Now() + time.Minute)
		if answered == 0 || searcher.Cache.Len() != held+1 || searcher.Config.AdvStore.Len() != stored+1 {
			t.Fatalf("%s: answered at %v, cache %d → %d, store %d → %d; want one more of each",
				searcher.Config.Name, answered, held, searcher.Cache.Len(), stored, searcher.Config.AdvStore.Len())
		}
		expires := answered + advertisement.DefaultExpiration
		sched.Run(expires)
		if got := searcher.Cache.Search("Resource", "Name", "gpu"); len(got) != 0 {
			t.Fatalf("%s: an expired answer is still found", searcher.Config.Name)
		}
		sched.Run(expires + 30*time.Second)
		if searcher.Cache.Len() != held || searcher.Config.AdvStore.Len() != stored {
			t.Fatalf("%s: a push interval after the answer expired, the cache holds %d (want %d) and the store %d (want %d)",
				searcher.Config.Name, searcher.Cache.Len(), held, searcher.Config.AdvStore.Len(), stored)
		}
	}
}

// TestHandoffIndexesEveryTuple: a self-healing rendezvous that stops
// gracefully pushes its whole SRDI to its successor, replica copies
// included. The stopping rendezvous holds one client and replica copies of
// the tuples two publishers pushed to the other rendezvous; the copies the
// successor lacks come back through nothing but the handoff, since neither
// publisher re-leases.
func TestHandoffIndexesEveryTuple(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed:     3,
		NumRdv:   3,
		Topology: topology.Chain,
		Lease:    rendezvous.Config{SelfHeal: true},
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "pub-a"},
			{AttachTo: 1, Count: 1, Prefix: "client"},
			{AttachTo: 2, Count: 1, Prefix: "pub-c"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)
	client := o.Edges[1]
	for _, pub := range []*node.Node{o.Edges[0], client, o.Edges[2]} {
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("%s-%d", pub.Config.Name, i)
			pub.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
		}
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)

	type reg struct {
		key string
		pub ids.ID
	}
	held := func(n *node.Node) map[reg]bool {
		out := map[reg]bool{}
		for _, tpl := range n.Discovery.Index().Tuples() {
			out[reg{tpl.Key, tpl.Publisher}] = true
		}
		return out
	}
	stopping := o.Rdvs[1]
	had := held(stopping)
	before := []map[reg]bool{held(o.Rdvs[0]), nil, held(o.Rdvs[2])}

	stopping.Stop()
	o.Sched.Run(o.Sched.Now() + time.Minute)
	rdv, ok := client.Rendezvous.ConnectedRdv()
	if !ok || rdv.Equal(stopping.ID) {
		t.Fatal("the client was not redirected to a successor")
	}
	succ := o.Rdvs[0]
	if rdv.Equal(o.Rdvs[2].ID) {
		succ = o.Rdvs[2]
	}
	// Only the handoff can bring the other publisher's replica copies.
	copies := 0
	for r := range had {
		if !before[slices.Index(o.Rdvs, succ)][r] && !r.pub.Equal(client.ID) {
			copies++
		}
	}
	if copies == 0 {
		t.Fatal("the successor already held every replica copy: the scenario tests nothing")
	}
	now := held(succ)
	for r := range had {
		if !now[r] {
			t.Errorf("the successor lacks %s from %s after the handoff", r.key, r.pub.Short())
		}
	}
	t.Logf("the stopped rendezvous held %d tuples, %d of them replica copies only the handoff carries", len(had), copies)
}
