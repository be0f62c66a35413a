package main

import "testing"

// TestLeaseConfigRejectsMergeWithoutSelfHeal: the tier flags admit three
// states, and -islandmerge alone is refused rather than run.
func TestLeaseConfigRejectsMergeWithoutSelfHeal(t *testing.T) {
	for _, c := range []struct{ heal, merge, ok bool }{
		{false, false, true},
		{true, false, true},
		{true, true, true},
		{false, true, false},
	} {
		cfg, err := leaseConfig(c.heal, c.merge)
		if (err == nil) != c.ok {
			t.Fatalf("leaseConfig(%v, %v) error = %v, want ok=%v", c.heal, c.merge, err, c.ok)
		}
		if c.ok && (cfg.SelfHeal != c.heal || cfg.IslandMerge != c.merge) {
			t.Fatalf("leaseConfig(%v, %v) = %+v", c.heal, c.merge, cfg)
		}
	}
}
