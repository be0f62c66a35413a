package experiments

import (
	"testing"
	"time"
)

// quickRoutingSpec is the small-scale bake-off the conformance and golden
// tests share: big enough that every backend routes nontrivially, small
// enough for CI.
func quickRoutingSpec() RoutingSpec {
	return RoutingSpec{
		N: 16, Keys: 6, Lookups: 12,
		Converge:    12 * time.Minute,
		MaintWindow: 5 * time.Minute,
		Seed:        42,
	}
}

// TestRoutingConformance runs the identical publish/lookup/maintenance
// scenario against all four backends and asserts the behavioral contract
// each must honor, whatever its internals: full lookup success, and
// maintenance traffic where a backend maintains anything. It also holds the
// §3.3 contrast the bake-off exists for: flooding costs more messages per
// lookup than the structured Chord ring.
func TestRoutingConformance(t *testing.T) {
	res, err := RunRouting(quickRoutingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d backends, want 4", len(res.Points))
	}
	lookupMsgs := map[string]float64{}
	for _, pt := range res.Points {
		lookupMsgs[pt.Backend] = pt.LookupMsgsPerOp
		if pt.Success != pt.Lookups {
			t.Errorf("%s: lookup wave %d/%d succeeded", pt.Backend, pt.Success, pt.Lookups)
		}
		if pt.Backend == "kademlia" && pt.MaintMsgsPerMin == 0 {
			t.Errorf("kademlia: bucket refresh produced no maintenance traffic")
		}
		if pt.Backend == "srdi" && pt.MaintMsgsPerMin == 0 {
			t.Errorf("srdi: peerview/SRDI maintenance produced no traffic")
		}
	}
	if lookupMsgs["flood"] <= lookupMsgs["chord"] {
		t.Errorf("flooding (%.1f msgs/lookup) not costlier than chord (%.1f)",
			lookupMsgs["flood"], lookupMsgs["chord"])
	}
}

// TestRoutingBakeoffDeterminism: the full four-backend bake-off replayed
// twice in one process must be byte-identical (the same contract the golden
// replay gate enforces in CI against the pinned fingerprint).
func TestRoutingBakeoffDeterminism(t *testing.T) {
	a, err := RunRouting(quickRoutingSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRouting(quickRoutingSpec())
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := routingFingerprint(a), routingFingerprint(b)
	if fa != fb {
		t.Errorf("same-seed bake-off diverged\n first:  %s\n second: %s", fa, fb)
	}
}
