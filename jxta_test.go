package jxta

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"jxta/internal/discovery"
)

func newSim(t *testing.T, r int, edges ...int) *Simulation {
	t.Helper()
	specs := make([]EdgeSpec, len(edges))
	for i, at := range edges {
		specs[i] = EdgeSpec{AttachTo: at}
	}
	sim, err := NewSimulation(SimOptions{Seed: 1, Rendezvous: r, Edges: specs})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestSimulationShape(t *testing.T) {
	sim := newSim(t, 4, 0, 3)
	if sim.NumRendezvous() != 4 || sim.NumEdges() != 2 {
		t.Fatalf("shape %d/%d", sim.NumRendezvous(), sim.NumEdges())
	}
	if !sim.Rendezvous(0).IsRendezvous() || sim.Edge(0).IsRendezvous() {
		t.Fatal("roles wrong")
	}
	if sim.Edge(0).Name() != "edge0" {
		t.Fatalf("edge name %q", sim.Edge(0).Name())
	}
	if sim.Edge(0).ID() == "" || sim.Edge(0).ID() == sim.Edge(1).ID() {
		t.Fatal("IDs wrong")
	}
}

func TestSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(SimOptions{Rendezvous: 2,
		Edges: []EdgeSpec{{AttachTo: 7}}}); err == nil {
		t.Fatal("bad attachment accepted")
	}
	if _, err := NewSimulation(SimOptions{Rendezvous: 2, Topology: "mobius"}); err == nil {
		t.Fatal("bad topology accepted")
	}
}

func TestPublishDiscoverEndToEnd(t *testing.T) {
	sim := newSim(t, 6, 0, 5)
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)

	pub, search := sim.Edge(0), sim.Edge(1)
	if !pub.Connected() || !search.Connected() {
		t.Fatal("edges not connected")
	}
	pub.PublishResource("compute-node-42", map[string]string{"Site": "rennes"})
	sim.Run(time.Minute)

	advs, elapsed, err := search.Discover("Resource", "Name", "compute-node-42", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 1 || elapsed <= 0 {
		t.Fatalf("advs=%d elapsed=%v", len(advs), elapsed)
	}
	res, ok := advs[0].(*Resource)
	if !ok || res.Name != "compute-node-42" {
		t.Fatalf("wrong advertisement %+v", advs[0])
	}
	// Attribute search works too (after flushing the cached copy the
	// query must travel again and still succeed).
	search.FlushCache()
	advs, _, err = search.Discover("Resource", "Site", "rennes", time.Minute)
	if err != nil || len(advs) != 1 {
		t.Fatalf("attribute discovery failed: %v, %d advs", err, len(advs))
	}
}

func TestDiscoverTimeout(t *testing.T) {
	sim := newSim(t, 3, 0)
	sim.Start()
	defer sim.Stop()
	sim.Run(10 * time.Minute)
	_, _, err := sim.Edge(0).Discover("Resource", "Name", "ghost", 45*time.Second)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPublishPeerAdv(t *testing.T) {
	sim := newSim(t, 4, 0, 3)
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)
	adv := sim.Edge(0).PublishPeerAdv()
	sim.Run(time.Minute)
	advs, _, err := sim.Edge(1).Discover("Peer", "Name", adv.Name, time.Minute)
	if err != nil || len(advs) != 1 {
		t.Fatalf("peer adv discovery: %v, %d advs", err, len(advs))
	}
}

func TestPeerViewSizeAccessor(t *testing.T) {
	sim := newSim(t, 5, 0)
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)
	if got := sim.Rendezvous(0).PeerViewSize(); got != 4 {
		t.Fatalf("rendezvous view size = %d, want 4", got)
	}
	if sim.Edge(0).PeerViewSize() != -1 {
		t.Fatal("edge reported a peerview")
	}
}

func TestKillRendezvousAndMessages(t *testing.T) {
	sim := newSim(t, 4, 0)
	sim.Start()
	defer sim.Stop()
	sim.Run(5 * time.Minute)
	if sim.Messages() == 0 {
		t.Fatal("no traffic recorded")
	}
	sim.KillRendezvous(2)
	sim.Run(5 * time.Minute) // survivors keep running
}

func TestDeterministicReplay(t *testing.T) {
	run := func() time.Duration {
		sim := newSim(t, 5, 0, 4)
		sim.Start()
		defer sim.Stop()
		sim.Run(12 * time.Minute)
		sim.Edge(0).PublishResource("x", nil)
		sim.Run(time.Minute)
		_, elapsed, err := sim.Edge(1).Discover("Resource", "Name", "x", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if run() != run() {
		t.Fatal("same seed produced different latencies")
	}
}

// TestDiscoveryOrderingDeterministic replays examples/gridresource's
// multi-publisher query — several sites publishing resources that match the
// same attribute — and asserts the merged response ordering is identical
// across two same-seed runs. The seed engine assembled responses in map
// iteration order (internal/srdi publishers, cm.Search postings), which
// flapped run to run; sorted assembly pins it.
func TestDiscoveryOrderingDeterministic(t *testing.T) {
	run := func() []string {
		sim, err := NewSimulation(SimOptions{
			Seed:       1234,
			Rendezvous: 8,
			Edges: []EdgeSpec{
				{AttachTo: 0, Name: "site-a"},
				{AttachTo: 2, Name: "site-b"},
				{AttachTo: 5, Name: "site-c"},
				{AttachTo: 7, Name: "scheduler"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Start()
		defer sim.Stop()
		sim.Run(15 * time.Minute)
		// Three publishers register resources under the same RAM value, so
		// the searcher's merged response interleaves advertisements from
		// several peers — the exact situation whose order used to flap.
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				sim.Edge(i).PublishResource(
					"node-"+string(rune('a'+i))+string(rune('0'+j)),
					map[string]string{"RAM": "4096"})
			}
		}
		sim.Run(time.Minute)
		scheduler := sim.Edge(3)
		scheduler.FlushCache()
		advs, _, err := scheduler.Discover("Resource", "RAM", "4096", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]string, len(advs))
		for i, adv := range advs {
			order[i] = adv.ID().String()
		}
		return order
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("query returned nothing")
	}
	if len(first) != len(second) {
		t.Fatalf("replay returned %d vs %d advertisements", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("response ordering diverged at %d:\n first:  %v\n second: %v",
				i, first, second)
		}
	}
}

// TestDiscoverMergesPublishers replays examples/gridresource up to its first
// query: two sites publish nodes with RAM=4096 (two at one site, one at
// another), so the lookup has two responders. A discovery lookup completes
// on its first answer, so Discover must collect (discovery.QueryAll) to merge
// the second publisher's advertisement into its result.
func TestDiscoverMergesPublishers(t *testing.T) {
	sim, err := NewSimulation(SimOptions{
		Seed:       1234,
		Rendezvous: 16,
		Topology:   "chain",
		Edges: []EdgeSpec{
			{AttachTo: 0, Name: "site-rennes"},
			{AttachTo: 5, Name: "site-sophia"},
			{AttachTo: 10, Name: "site-orsay"},
			{AttachTo: 15, Name: "scheduler"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	defer sim.Stop()
	sim.Run(15 * time.Minute)
	for _, n := range []struct {
		site      int
		name, ram string
	}{
		{0, "paraci-01", "4096"}, {0, "paraci-02", "4096"}, {1, "helios-01", "2048"},
		{2, "gdx-01", "2048"}, {2, "gdx-02", "4096"},
	} {
		sim.Edge(n.site).PublishResource(n.name, map[string]string{"RAM": n.ram})
	}
	sim.Run(time.Minute)
	advs, _, err := sim.Edge(3).Discover("Resource", "RAM", "4096", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, adv := range advs {
		names = append(names, adv.(*Resource).Name)
	}
	if got := strings.Join(names, " "); got != "gdx-02 paraci-01 paraci-02" {
		t.Fatalf("Discover merged %q, want both publishers' three nodes", got)
	}
}

// TestPublishResourceAttrsSorted: an attribute map has no order, so
// PublishResource must impose one, or one seed publishes a different
// advertisement (and wire encoding) on every run.
func TestPublishResourceAttrsSorted(t *testing.T) {
	sim := newSim(t, 2, 0)
	sim.Start()
	defer sim.Stop()
	attrs := map[string]string{}
	for _, k := range []string{"RAM", "CPU", "Site", "Disk", "OS", "Arch", "Cores", "GPU"} {
		attrs[k] = "v-" + k
	}
	var orders [2][]string
	for i := range orders {
		for _, f := range sim.Edge(0).PublishResource(fmt.Sprintf("node-%d", i), attrs).Attrs {
			orders[i] = append(orders[i], f.Attr)
		}
	}
	if !slices.Equal(orders[0], orders[1]) || !slices.IsSorted(orders[0]) || len(orders[0]) != len(attrs) {
		t.Fatalf("attribute orders %v and %v, want one sorted order of %d", orders[0], orders[1], len(attrs))
	}
}

func TestGrid5000Sites(t *testing.T) {
	sites := Grid5000Sites()
	if len(sites) != 9 || sites[6] != "rennes" {
		t.Fatalf("sites = %v", sites)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	sim := newSim(t, 2, 0)
	sim.Start()
	sim.Start()
	sim.Run(time.Minute)
	sim.Stop()
	sim.Stop()
}

func TestDiscoverRange(t *testing.T) {
	sim := newSim(t, 6, 0, 2, 5)
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)
	sim.Edge(0).PublishResource("small", map[string]string{"RAM": "1024"})
	sim.Edge(1).PublishResource("big", map[string]string{"RAM": "8192"})
	sim.Run(time.Minute)

	searcher := sim.Edge(2)
	advs, elapsed, err := searcher.DiscoverRange("Resource", "RAM", 500, 2000, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 1 || advs[0].(*Resource).Name != "small" || elapsed <= 0 {
		t.Fatalf("range [500,2000]: %d advs, elapsed %v", len(advs), elapsed)
	}
	searcher.FlushCache()
	advs, _, err = searcher.DiscoverRange("Resource", "RAM", 0, 1<<40, time.Minute)
	if err != nil || len(advs) != 2 {
		t.Fatalf("full span: %v, %d advs", err, len(advs))
	}
	_, _, err = searcher.DiscoverRange("Resource", "RAM", 1<<30, 1<<31, 30*time.Second)
	if err != ErrTimeout {
		t.Fatalf("empty range err = %v, want ErrTimeout", err)
	}
}

// TestResultAdvsIsLent: discovery.Result.Advs is lent for the callback, as a
// delivered message is lent to its handler. A callback that keeps the list
// finds it cleared once it returns, and the next response is lent in the
// same array. The advertisements are the caller's to keep: Discover and
// DiscoverRange, which merge several publishers' responses, copy them out
// and still return every one.
func TestResultAdvsIsLent(t *testing.T) {
	sim := newSim(t, 6, 0, 2, 5)
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)
	sim.Edge(0).PublishResource("lent-small", map[string]string{"Site": "lent", "RAM": "1024"})
	sim.Edge(1).PublishResource("lent-big", map[string]string{"Site": "lent", "RAM": "8192"})
	sim.Run(time.Minute)
	searcher := sim.Edge(2)

	var kept [][]Advertisement
	var inside []string
	err := searcher.n.Discovery.QueryAll("Resource", "Site", "lent", func(r discovery.Result) {
		for _, adv := range r.Advs {
			inside = append(inside, adv.(*Resource).Name)
		}
		kept = append(kept, r.Advs)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)
	slices.Sort(inside)
	if len(kept) != 2 || !slices.Equal(inside, []string{"lent-big", "lent-small"}) {
		t.Fatalf("%d callbacks read %v, want one from each publisher", len(kept), inside)
	}
	for i, advs := range kept {
		for j, adv := range advs {
			if adv != nil {
				t.Errorf("response %d: advertisement %d is still %v after the callback returned", i, j, adv)
			}
		}
	}

	names := func(advs []Advertisement) []string {
		var out []string
		for _, adv := range advs {
			out = append(out, adv.(*Resource).Name)
		}
		slices.Sort(out)
		return out
	}
	searcher.FlushCache()
	advs, _, err := searcher.Discover("Resource", "Site", "lent", time.Minute)
	if got := names(advs); err != nil || !slices.Equal(got, []string{"lent-big", "lent-small"}) {
		t.Fatalf("Discover: %v, %v", got, err)
	}
	searcher.FlushCache()
	ranged, _, err := searcher.DiscoverRange("Resource", "RAM", 0, 1<<20, time.Minute)
	if got := names(ranged); err != nil || !slices.Equal(got, []string{"lent-big", "lent-small"}) {
		t.Fatalf("DiscoverRange: %v, %v", got, err)
	}
	// A later lookup reuses the lent array; what Discover returned is the
	// caller's own.
	searcher.FlushCache()
	if _, _, err := searcher.Discover("Resource", "Name", "lent-small", time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := names(advs); !slices.Equal(got, []string{"lent-big", "lent-small"}) {
		t.Fatalf("Discover's result changed to %v after a later lookup", got)
	}
}
