package jxta

import (
	"strings"
	"testing"
	"time"
)

// TestMetricsPureObserver proves the runtime instrumentation changes
// nothing: a run that scrapes every peer's registry, Prometheus encoding
// and trace ring between every virtual segment must land on exactly the
// trajectory of an identical unobserved run — same steps, same message
// and byte counts. (The registry is always on; this pins that *reading*
// it mid-run is also free of protocol effects.)
func TestMetricsPureObserver(t *testing.T) {
	run := func(scrape bool) (uint64, map[string]float64) {
		sim := newSim(t, 5, 0, 2, 4)
		sim.Start()
		defer sim.Stop()
		for seg := 0; seg < 6; seg++ {
			sim.Run(3 * time.Minute)
			if !scrape {
				continue
			}
			for i := 0; i < sim.NumRendezvous(); i++ {
				sim.Rendezvous(i).MetricsSnapshot()
				sim.Rendezvous(i).WriteMetrics(&strings.Builder{})
				sim.Rendezvous(i).TraceEvents()
			}
			for i := 0; i < sim.NumEdges(); i++ {
				sim.Edge(i).MetricsSnapshot()
				sim.Edge(i).TraceEvents()
			}
			sim.OverlayMetrics()
		}
		return sim.Steps(), sim.OverlayMetrics()
	}
	stepsA, netA := run(false)
	stepsB, netB := run(true)
	if stepsA != stepsB {
		t.Fatalf("scraping perturbed the run: %d steps vs %d", stepsB, stepsA)
	}
	for _, k := range []string{"jxta_net_messages_total", "jxta_net_bytes_total", "jxta_net_dropped_total"} {
		if netA[k] != netB[k] {
			t.Errorf("%s: %v observed vs %v unobserved", k, netB[k], netA[k])
		}
		if k != "jxta_net_dropped_total" && netB[k] == 0 {
			t.Errorf("%s is zero after a 18-minute run", k)
		}
	}
}

// TestMetricsComponentCoverage asserts a converged peer's /metrics-format
// output covers every protocol component, and that the load-bearing series
// are non-zero where the scenario exercised them.
func TestMetricsComponentCoverage(t *testing.T) {
	sim := newSim(t, 4, 0, 3)
	sim.Start()
	defer sim.Stop()
	sim.Run(12 * time.Minute)

	var b strings.Builder
	if err := sim.Rendezvous(0).WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, comp := range []string{
		"jxta_endpoint_", "jxta_resolver_", "jxta_rendezvous_",
		"jxta_peerview_", "jxta_discovery_", "jxta_node_",
		"jxta_cache_",
	} {
		if !strings.Contains(text, comp) {
			t.Errorf("rendezvous metrics missing component %s", comp)
		}
	}
	rdv := sim.Rendezvous(0).MetricsSnapshot()
	if rdv["jxta_rendezvous_leases_granted_total"] == 0 {
		t.Error("rendezvous granted no leases with two edges attached")
	}
	if rdv["jxta_peerview_size"] == 0 {
		t.Error("peerview size gauge is zero after convergence")
	}
	if rdv[`jxta_endpoint_tx_messages_total{service="rdv.peerview"}`] == 0 {
		t.Error("per-service endpoint counter never incremented")
	}

	edge := sim.Edge(0).MetricsSnapshot()
	if edge["jxta_node_role"] != 0 || rdv["jxta_node_role"] != 1 {
		t.Errorf("role gauges: edge=%v rdv=%v", edge["jxta_node_role"], rdv["jxta_node_role"])
	}
	if edge["jxta_rendezvous_connected"] != 1 {
		t.Error("edge not connected per gauge")
	}

	// The edge's trace ring must hold its lease acquisition.
	found := false
	for _, ev := range sim.Edge(0).TraceEvents() {
		if ev.Type == "lease-acquired" {
			found = true
		}
	}
	if !found {
		t.Errorf("edge trace has no lease-acquired event: %v", sim.Edge(0).TraceEvents())
	}
}

// TestMetricsSurvivePromotion: when self-healing promotes an edge in place,
// the fresh peerview the promotion builds must appear in the node's metrics
// (size gauge live), and the trace ring must carry the promotion event.
func TestMetricsSurvivePromotion(t *testing.T) {
	sim, err := NewSimulation(SimOptions{
		Seed: 3, Rendezvous: 2,
		Edges: []EdgeSpec{{AttachTo: 0}, {AttachTo: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	defer sim.Stop()
	sim.Run(10 * time.Minute)

	p := sim.Edge(0)
	p.Promote()
	sim.Run(5 * time.Minute)
	if !p.IsRendezvous() {
		t.Fatal("promotion did not take")
	}
	snap := p.MetricsSnapshot()
	if snap["jxta_node_role"] != 1 {
		t.Error("role gauge did not flip on promotion")
	}
	if snap["jxta_peerview_size"] == 0 {
		t.Error("promoted node's peerview gauge dead: promotion lost")
	}
	found := false
	for _, ev := range p.TraceEvents() {
		if ev.Type == "promotion" {
			found = true
		}
	}
	if !found {
		t.Errorf("no promotion event in trace: %v", p.TraceEvents())
	}
}
