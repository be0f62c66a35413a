package experiments

import (
	"runtime"
	"testing"
	"time"

	"jxta/internal/topology"
)

// TestPeerviewAllocsPerStepCeiling is ROADMAP item 1's allocation gate: the
// cost of one mention of a rendezvous advertisement in peerview gossip, as
// mallocs per scheduler step (overlay construction included) on a workload
// that is nothing but such gossip: 40 rendezvous in a chain, 10 virtual
// minutes, one fixed seed, the serial engine. The figure is a count, not a
// time, so it holds on any machine.
//
// Before advertisements were encoded once (PR 13) this workload took 25.2
// mallocs per step: every mention was encoded at the sender, decoded at the
// receiver and encoded again to be hashed. With interned handles carrying
// their canonical bytes it takes 8.4. The ceiling is the next integer above
// +15 %; a change that reintroduces a per-mention encode or decode lands far
// over it.
func TestPeerviewAllocsPerStepCeiling(t *testing.T) {
	const ceiling = 10
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
		t.Fatalf("peerview gossip costs %.2f mallocs per scheduler step, ceiling %d", got, ceiling)
	}
}
