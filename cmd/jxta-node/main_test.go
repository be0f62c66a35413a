package main

import "testing"

// TestLeaseConfigRejectsMergeWithoutSelfHeal: the tier flags admit three
// states, and -islandmerge alone is refused rather than run. A self-healing
// tier runs the peerview's failure detection with the facade's three
// rounds; a paper-faithful one leaves it off.
func TestLeaseConfigRejectsMergeWithoutSelfHeal(t *testing.T) {
	for _, c := range []struct {
		heal, merge, ok bool
		probeRounds     int
	}{
		{false, false, true, 0},
		{true, false, true, 3},
		{true, true, true, 3},
		{false, true, false, 0},
	} {
		cfg, pv, err := leaseConfig(c.heal, c.merge)
		if (err == nil) != c.ok {
			t.Fatalf("leaseConfig(%v, %v) error = %v, want ok=%v", c.heal, c.merge, err, c.ok)
		}
		if c.ok && (cfg.SelfHeal != c.heal || cfg.IslandMerge != c.merge) {
			t.Fatalf("leaseConfig(%v, %v) = %+v", c.heal, c.merge, cfg)
		}
		if c.ok && pv.ProbeTimeoutRounds != c.probeRounds {
			t.Fatalf("leaseConfig(%v, %v) peerview = %+v, want ProbeTimeoutRounds %d", c.heal, c.merge, pv, c.probeRounds)
		}
	}
}
