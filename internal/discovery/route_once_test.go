package discovery_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// TestNoRendezvousRoutesAQueryTwice is the invariant that lets a rendezvous
// keep no query dedup set: through kills and restarts, with exact lookups
// (replica forwards and walks) and range queries in flight, no peer is sent
// one query (Src, QID) twice at a routing stage — initial, replica or range.
// Only the publisher's delivery stage can see a query more than once.
func TestNoRendezvousRoutesAQueryTwice(t *testing.T) {
	const rdvs, perRdv, perEdge = 10, 2, 3
	groups := make([]deploy.EdgeGroup, rdvs)
	for i := range groups {
		groups[i] = deploy.EdgeGroup{AttachTo: i, Count: perRdv}
	}
	o, err := deploy.Build(deploy.Spec{
		Seed: 29, NumRdv: rdvs, Topology: topology.Chain, Discovery: discovery.DefaultConfig(),
		Lease: rendezvous.Config{LeaseDuration: 5 * time.Minute, ResponseTimeout: 10 * time.Second},
		Edges: groups,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(12 * time.Minute)
	for i, e := range o.Edges {
		for k := 0; k < perEdge; k++ {
			name := fmt.Sprintf("res-%d-%d", i, k)
			e.Discovery.Publish(&advertisement.Resource{
				ResID: ids.FromName(ids.KindAdv, name), Name: name,
				Attrs: []advertisement.IndexField{{Attr: "RAM", Value: fmt.Sprint(1000 + 10*i + k)}},
			}, 0)
		}
	}
	o.Sched.Run(o.Sched.Now() + 2*time.Minute)

	type routed struct {
		to       transport.Addr
		src, qid string
	}
	seen := map[routed]string{}
	stages := map[string]int{}
	o.Net.OnSend = func(_, to transport.Addr, m *message.Message) {
		q, ok := m.Get("res", "Query")
		if !ok {
			return
		}
		for _, stage := range []string{"initial", "replica", "range"} {
			if !bytes.Contains(q, []byte("<Stage>"+stage+"</Stage>")) {
				continue
			}
			stages[stage]++
			key := routed{to, m.GetString("res", "Src"), m.GetString("res", "QID")}
			if was, dup := seen[key]; dup {
				t.Fatalf("%s was sent query %s of %s at the %s stage after the %s stage", to, key.qid, key.src, stage, was)
			}
			seen[key] = stage
		}
	}
	for round := 0; round < 6; round++ {
		victim := 1 + round%(rdvs-1)
		o.KillRdv(victim)
		o.Sched.Run(o.Sched.Now() + 30*time.Second)
		for i, e := range o.Edges {
			other := (i + round + 1) % len(o.Edges)
			_ = e.Discovery.QueryRemote("Resource", "Name", fmt.Sprintf("res-%d-%d", other, round%perEdge), func(discovery.Result) {}, nil)
			if i%4 == round%4 { // another edge's resources only: a local match answers locally
				_ = e.Discovery.QueryRange("Resource", "RAM", 1000+int64(10*other), 1009+int64(10*other), func(discovery.Result) {}, nil)
			}
		}
		o.Sched.Run(o.Sched.Now() + time.Minute)
		o.RestartRdv(victim)
		o.Sched.Run(o.Sched.Now() + 2*time.Minute)
	}
	walks := 0
	for _, r := range o.Rdvs {
		walks += int(r.Discovery.Stats.WalksStarted)
	}
	if stages["initial"] == 0 || stages["replica"] == 0 || stages["range"] == 0 || walks == 0 {
		t.Fatalf("routing-stage sends %v, %d walks: the scenario exercised too little", stages, walks)
	}
	t.Logf("routing-stage sends %v, %d walks", stages, walks)
}
