package discovery_test

import (
	"fmt"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/node"
	"jxta/internal/topology"
)

// rangeRig deploys an overlay with three publishers holding numeric RAM
// attributes and one searcher.
func rangeRig(t *testing.T, seed int64) (*deploy.Overlay, []*rigNode, *rigNode) {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:      seed,
		NumRdv:    8,
		Topology:  topology.Chain,
		Discovery: discovery.DefaultConfig(),
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "pubA"},
			{AttachTo: 3, Count: 1, Prefix: "pubB"},
			{AttachTo: 5, Count: 1, Prefix: "pubC"},
			{AttachTo: 7, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(12 * time.Minute)
	pubs := []*rigNode{{o.Edges[0]}, {o.Edges[1]}, {o.Edges[2]}}
	rams := []int64{1024, 2048, 4096}
	for i, p := range pubs {
		p.n.Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("node-%d", i)),
			Name:  fmt.Sprintf("node-%d", i),
			Attrs: []advertisement.IndexField{
				{Attr: "RAM", Value: fmt.Sprintf("%d", rams[i])},
			},
		}, 0)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	return o, pubs, &rigNode{o.Edges[3]}
}

type rigNode struct{ n *node.Node }

// collectRange issues a range query and gathers distinct advertisements
// over a settle window.
func collectRange(t *testing.T, o *deploy.Overlay, searcher *rigNode, attr string, lo, hi int64) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	err := searcher.n.Discovery.QueryRange("Resource", attr, lo, hi,
		func(r discovery.Result) {
			for _, adv := range r.Advs {
				got[adv.(*advertisement.Resource).Name] = true
			}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	return got
}

func TestRangeQueryFindsAllMatchingPublishers(t *testing.T) {
	o, _, searcher := rangeRig(t, 1)
	got := collectRange(t, o, searcher, "RAM", 2000, 5000)
	if len(got) != 2 || !got["node-1"] || !got["node-2"] {
		t.Fatalf("range [2000,5000] returned %v, want node-1 and node-2", got)
	}
}

// TestDeferredQueryOwnsItsPayload: with a scan cost to wait behind, a
// rendezvous parks a query before routing it, and what it then walks is the
// query's payload — while the transport has long reused the delivered bytes
// for the traffic in between (under -tags loancheck it overwrites them at
// once). The searcher's rendezvous is the middle of three and indexes a
// tuple of its own, so it does wait, and the range walk must reach both ends
// intact for their publishers to answer.
func TestDeferredQueryOwnsItsPayload(t *testing.T) {
	cfg := discovery.DefaultConfig()
	cfg.ScanCost = 20 * time.Millisecond // per indexed tuple: long enough for other deliveries to land first
	o, err := deploy.Build(deploy.Spec{
		Seed:      7,
		NumRdv:    3,
		Topology:  topology.Chain,
		Discovery: cfg,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "pubA"},
			{AttachTo: 1, Count: 1, Prefix: "pubB"},
			{AttachTo: 2, Count: 1, Prefix: "pubC"},
			{AttachTo: 1, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(12 * time.Minute)
	for i, ram := range []int64{2048, 1024, 4096} {
		o.Edges[i].Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("node-%d", i)),
			Name:  fmt.Sprintf("node-%d", i),
			Attrs: []advertisement.IndexField{{Attr: "RAM", Value: fmt.Sprintf("%d", ram)}},
		}, 0)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	got := collectRange(t, o, &rigNode{o.Edges[3]}, "RAM", 2000, 5000)
	if len(got) != 2 || !got["node-0"] || !got["node-2"] {
		t.Fatalf("range [2000,5000] behind a scan cost returned %v, want node-0 and node-2", got)
	}
}

func TestRangeQueryFullSpan(t *testing.T) {
	o, _, searcher := rangeRig(t, 2)
	got := collectRange(t, o, searcher, "RAM", 0, 1<<40)
	if len(got) != 3 {
		t.Fatalf("full-span range returned %v, want all three", got)
	}
}

func TestRangeQueryEmptyResult(t *testing.T) {
	o, _, searcher := rangeRig(t, 3)
	timedOut := false
	err := searcher.n.Discovery.QueryRange("Resource", "RAM", 9000, 10000,
		func(discovery.Result) { t.Error("response for empty range") },
		func() { timedOut = true })
	if err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	if !timedOut {
		t.Fatal("empty range never timed out")
	}
}

func TestRangeQueryBoundsInclusive(t *testing.T) {
	o, _, searcher := rangeRig(t, 4)
	got := collectRange(t, o, searcher, "RAM", 1024, 1024)
	if len(got) != 1 || !got["node-0"] {
		t.Fatalf("point range returned %v, want exactly node-0", got)
	}
}

func TestRangeQueryWrongAttributeIgnored(t *testing.T) {
	o, _, searcher := rangeRig(t, 5)
	got := collectRange(t, o, searcher, "CPU", 0, 1<<40)
	if len(got) != 0 {
		t.Fatalf("range over unindexed attribute returned %v", got)
	}
}

func TestRangeQueryServedFromLocalCache(t *testing.T) {
	o, _, searcher := rangeRig(t, 6)
	first := collectRange(t, o, searcher, "RAM", 0, 1<<40)
	if len(first) != 3 {
		t.Fatalf("seed query returned %v", first)
	}
	// Cached: the second query answers locally without network traffic.
	before := o.Net.Stats().Messages
	var local *discovery.Result
	searcher.n.Discovery.QueryRange("Resource", "RAM", 0, 1<<40,
		func(r discovery.Result) { local = &r }, nil)
	o.Sched.Run(o.Sched.Now() + time.Second)
	if local == nil || !local.From.Equal(searcher.n.ID) {
		t.Fatal("cached range query not served locally")
	}
	// Peerview chatter continues; just assert no burst proportional to a
	// full walk happened within the second.
	if o.Net.Stats().Messages-before > 50 {
		t.Fatalf("local range answer still generated %d messages",
			o.Net.Stats().Messages-before)
	}
}

// TestRangeQueryFindsEveryValueOfOnePublisher: a publisher's two
// advertisements carry two values of one attribute, and both tuples land on
// the one rendezvous. A range query for the value published first still
// reaches the publisher, whose cache answers with the one advertisement in
// range.
func TestRangeQueryFindsEveryValueOfOnePublisher(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed:      8,
		NumRdv:    1,
		Topology:  topology.Chain,
		Discovery: discovery.DefaultConfig(),
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "pub"},
			{AttachTo: 0, Count: 1, Prefix: "searcher"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(12 * time.Minute)
	for _, ram := range []int64{4096, 2048} {
		o.Edges[0].Discovery.Publish(&advertisement.Resource{
			ResID: ids.FromName(ids.KindAdv, fmt.Sprintf("ram-%d", ram)),
			Name:  fmt.Sprintf("ram-%d", ram),
			Attrs: []advertisement.IndexField{{Attr: "RAM", Value: fmt.Sprintf("%d", ram)}},
		}, 0)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	searcher := &rigNode{o.Edges[1]}
	searcher.n.Discovery.FlushCache()
	got := collectRange(t, o, searcher, "RAM", 3072, 1<<62)
	if len(got) != 1 || !got["ram-4096"] {
		t.Fatalf("range [3072,∞) returned %v, want ram-4096", got)
	}
}
