package experiments

import (
	"testing"
	"time"
)

// The §5 axes run their measurement loops from inside the simulation —
// query chains on the searcher's shard, kill schedules and sampling on the
// quiesced driver scheduler — so nothing in them may depend on thread
// timing. These tests pin that: a sharded run replayed with the same seed
// reproduces every outcome exactly.

func TestDiscoveryShardedDeterministic(t *testing.T) {
	spec := DiscoverySpec{R: 12, Queries: 8, Shards: 4, Seed: 7,
		Converge: 10 * time.Minute}
	a, err := RunDiscovery(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDiscovery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.NetStats != b.NetStats {
		t.Fatalf("sharded discovery replay diverged: steps %d vs %d, net %+v vs %+v",
			a.Steps, b.Steps, a.NetStats, b.NetStats)
	}
	if a.Latency.N() != b.Latency.N() || a.MeanMs != b.MeanMs || a.Timeouts != b.Timeouts {
		t.Fatalf("sharded discovery outcomes diverged: n=%d/%d mean=%v/%v timeouts=%d/%d",
			a.Latency.N(), b.Latency.N(), a.MeanMs, b.MeanMs, a.Timeouts, b.Timeouts)
	}
	if a.Latency.N()+a.Timeouts != spec.Queries {
		t.Fatalf("lost queries: %d samples + %d timeouts != %d",
			a.Latency.N(), a.Timeouts, spec.Queries)
	}
}

func TestVolatilityShardedDeterministic(t *testing.T) {
	spec := VolatilitySpec{R: 6, EdgesPerRdv: 1, Kills: 3, Queries: 6,
		KillEvery: []time.Duration{2 * time.Minute}, Shards: 4, Seed: 7}
	a, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.NetStats != b.NetStats {
		t.Fatalf("sharded volatility replay diverged: steps %d vs %d, net %+v vs %+v",
			a.Steps, b.Steps, a.NetStats, b.NetStats)
	}
	pa, pb := a.Points[0], b.Points[0]
	if pa.Phase.Succeeded != pb.Phase.Succeeded || pa.Phase.Timeouts != pb.Phase.Timeouts ||
		pa.Promotions != pb.Promotions || pa.LiveTier != pb.LiveTier ||
		pa.MeanView != pb.MeanView || pa.Reconverged != pb.Reconverged {
		t.Fatalf("sharded volatility outcomes diverged: %+v vs %+v", pa, pb)
	}
}

// TestShardedVolatilityCountsFromCounters pins that the sweep's promotion
// and merge counts are read from each node's own counters once the point
// has run, not tallied by callbacks that two shards run in the same window:
// under -race a shared tally reports a data race, and without it a lost
// update would make two replays disagree.
func TestShardedVolatilityCountsFromCounters(t *testing.T) {
	spec := VolatilitySpec{R: 27, EdgesPerRdv: 3, Queries: 10,
		KillEvery: []time.Duration{10 * time.Second}, Shards: 9, Seed: 1, IslandMerge: true}
	var promos, merges [2]int
	for i := range promos {
		res, err := RunVolatility(spec)
		if err != nil {
			t.Fatal(err)
		}
		pt := res.Points[0]
		promos[i], merges[i] = pt.Promotions, pt.Merge.Merges
	}
	if promos[0] == 0 || merges[0] == 0 {
		t.Fatalf("scenario exercised no healing: promotions=%d merges=%d", promos[0], merges[0])
	}
	if promos[0] != promos[1] || merges[0] != merges[1] {
		t.Fatalf("sharded counts diverged: promotions %d vs %d, merges %d vs %d",
			promos[0], promos[1], merges[0], merges[1])
	}
}
