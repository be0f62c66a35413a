package experiments

import (
	"testing"
	"time"

	"jxta/internal/topology"
)

// The experiment drivers are exercised at reduced scale so the test suite
// stays fast; full-scale regeneration lives in cmd/jxta-bench and the root
// benchmark suite.

func TestRunPeerviewSmall(t *testing.T) {
	res, err := RunPeerview(PeerviewSpec{
		R: 10, Topology: topology.Chain, Duration: 15 * time.Minute, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSize != 9 || !res.ReachedMax || !res.ConsistentAtEnd {
		t.Fatalf("r=10 should satisfy property (2): %+v", res)
	}
	if len(res.Size.Values) == 0 || len(res.MeanSize.Values) != len(res.Size.Values) {
		t.Fatal("series not sampled")
	}
	if res.ReachedMaxAt <= 0 {
		t.Fatal("t1 not recorded")
	}
}

func TestRunPeerviewTreeMatchesChainBehaviour(t *testing.T) {
	// "this initial parameter has no significant influence on the peerview
	// behavior": both topologies converge for small r.
	chain, err := RunPeerview(PeerviewSpec{R: 12, Topology: topology.Chain,
		Duration: 15 * time.Minute, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RunPeerview(PeerviewSpec{R: 12, Topology: topology.Tree,
		Duration: 15 * time.Minute, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if chain.FinalSize != 11 || tree.FinalSize != 11 {
		t.Fatalf("chain=%d tree=%d, want 11", chain.FinalSize, tree.FinalSize)
	}
}

func TestPeerviewEventsLogged(t *testing.T) {
	res, err := RunPeerview(PeerviewSpec{
		R: 8, Topology: topology.Chain, Duration: 10 * time.Minute, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	adds, _ := res.Events.Counts()
	if adds < 7 {
		t.Fatalf("only %d add events for r=8", adds)
	}
	if res.Events.DistinctPeers() != 7 {
		t.Fatalf("distinct peers = %d, want 7", res.Events.DistinctPeers())
	}
}

func TestFig4LeftTunedBeatsDefault(t *testing.T) {
	// Scaled-down Figure 4 (left): with entry expiry shorter than the run,
	// the default view fluctuates below max while the tuned one holds it.
	def, err := RunPeerview(PeerviewSpec{R: 30, Topology: topology.Chain,
		Duration: 40 * time.Minute, Seed: 4, EntryExpiry: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunPeerview(PeerviewSpec{R: 30, Topology: topology.Chain,
		Duration: 40 * time.Minute, Seed: 4, EntryExpiry: 365 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.FinalSize != 29 {
		t.Fatalf("tuned final = %d, want 29", tuned.FinalSize)
	}
	if def.PlateauMean >= float64(tuned.FinalSize) {
		t.Fatalf("default plateau %.1f not below tuned max %d",
			def.PlateauMean, tuned.FinalSize)
	}
}

func TestRunDiscoverySmall(t *testing.T) {
	res, err := RunDiscovery(DiscoverySpec{
		R: 5, Queries: 20, Seed: 5, Converge: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N() != 20 || res.Timeouts != 0 {
		t.Fatalf("samples=%d timeouts=%d", res.Latency.N(), res.Timeouts)
	}
	if res.MeanMs <= 0 || res.MeanMs > 100 {
		t.Fatalf("mean latency %.1f ms implausible", res.MeanMs)
	}
}

func TestRunDiscoveryNoiseAddsOverhead(t *testing.T) {
	quiet, err := RunDiscovery(DiscoverySpec{
		R: 5, Queries: 30, Seed: 6, Converge: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunDiscovery(DiscoverySpec{
		R: 5, Noise: true, Queries: 30, Seed: 6, Converge: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.MeanMs <= quiet.MeanMs {
		t.Fatalf("noise did not slow discovery: %.1f vs %.1f ms",
			noisy.MeanMs, quiet.MeanMs)
	}
}

func TestRunDiscoveryRejectsBadSpec(t *testing.T) {
	if _, err := RunDiscovery(DiscoverySpec{R: 0}); err == nil {
		t.Fatal("r=0 accepted")
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pos != 3 {
		t.Fatalf("replica position = %d, want 3 (paper Table 1)", res.Pos)
	}
	// O(1) publish: one SRDI push + at most one replication per index
	// field (a Peer advertisement has two fields).
	if res.PublishMsgs < 1 || res.PublishMsgs > 3 {
		t.Fatalf("publish used %d messages, want 1..3 (paper: 2)", res.PublishMsgs)
	}
	// Consistent lookup: edge->rdv, rdv->replica, replica->publisher,
	// publisher->searcher = at most 4 (fewer when stages coincide).
	if res.LookupMsgs < 2 || res.LookupMsgs > 4 {
		t.Fatalf("lookup used %d messages, want 2..4 (paper: 4)", res.LookupMsgs)
	}
	if res.LatencyMs <= 0 {
		t.Fatal("lookup latency not measured")
	}
}

func TestRunChurn(t *testing.T) {
	res, err := RunChurn(ChurnSpec{R: 12, Queries: 30, Kills: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded == 0 {
		t.Fatal("no query succeeded under churn")
	}
	// Most queries should still succeed: the publisher's and searcher's
	// rendezvous survive, and replication + walking cover the rest.
	if res.Succeeded < res.Spec.Queries*2/3 {
		t.Fatalf("only %d/%d queries succeeded under churn",
			res.Succeeded, res.Spec.Queries)
	}
}

func TestRunChurnBadSpec(t *testing.T) {
	if _, err := RunChurn(ChurnSpec{R: 2}); err == nil {
		t.Fatal("r=2 accepted")
	}
}

func TestDeterministicExperiment(t *testing.T) {
	run := func() float64 {
		res, err := RunDiscovery(DiscoverySpec{
			R: 5, Queries: 10, Seed: 11, Converge: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanMs
	}
	if run() != run() {
		t.Fatal("same seed produced different results")
	}
}
