package experiments

import (
	"fmt"
	"testing"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/metrics"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// TestNodeMetricsTotalsSumTheServices: CollectNodeMetrics' totals are the
// services' own counts summed over the population — peerview rounds (each
// peerview's own series), discovery queries sent, and one jxta_rendezvous_connected per leased edge —
// on the quick `-exp scale` memory spec, with deploy.Spec.LeanMetrics set and
// not. The field is ignored now; when it put every node on one shared
// registry, each collector-backed series read whichever peer registered last:
// this scenario then totalled 13 rounds against 234, 0 queries sent against
// 18, and 1 connected edge of 540.
func TestNodeMetricsTotalsSumTheServices(t *testing.T) {
	for _, lean := range []bool{false, true} {
		t.Run(fmt.Sprintf("lean=%v", lean), func(t *testing.T) {
			const r, edges = 18, 540
			groups := make([]deploy.EdgeGroup, r)
			for i := range groups {
				groups[i] = deploy.EdgeGroup{AttachTo: i, Count: edges / r}
			}
			o, err := deploy.Build(deploy.Spec{
				Seed: 42, NumRdv: r, Shards: 2, LeanMetrics: lean, Topology: topology.Chain,
				Lease: rendezvous.Config{LeaseDuration: time.Minute}, Discovery: discovery.DefaultConfig(),
				Edges: groups,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer o.StopAll()
			o.StartAll()
			o.Sched.Run(5 * time.Minute)
			for i, e := range o.Edges {
				if i%(edges/r) == 0 {
					if err := e.Discovery.QueryRemote("Peer", "Name", fmt.Sprintf("nobody-%d", i), func(discovery.Result) {}, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			o.Sched.Run(6 * time.Minute)

			var rounds, sent uint64
			leased := 0
			for _, n := range o.Nodes() {
				if n.PeerView != nil {
					reg := metrics.NewRegistry()
					n.PeerView.Collect(reg)
					rounds += uint64(reg.Snapshot()["jxta_peerview_rounds_total"])
				}
				sent += n.Discovery.Stats.QueriesSent
				if _, ok := n.Rendezvous.ConnectedRdv(); ok && !n.IsRendezvous() {
					leased++
				}
			}
			if sent == 0 || leased != edges {
				t.Fatalf("the scenario sent %d queries and leased %d of %d edges", sent, leased, edges)
			}
			totals := CollectNodeMetrics(o, 0).Totals
			for _, c := range []struct {
				series string
				want   float64
			}{
				{"jxta_peerview_rounds_total", float64(rounds)},
				{"jxta_discovery_queries_sent_total", float64(sent)},
				{"jxta_rendezvous_connected", float64(leased)},
			} {
				if got := totals[c.series]; got != c.want {
					t.Errorf("%s totals %v, the services hold %v", c.series, got, c.want)
				}
			}
		})
	}
}
