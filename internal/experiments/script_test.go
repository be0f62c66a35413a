package experiments

import (
	"testing"
	"time"

	"jxta/internal/advertisement"
)

// TestLookupPhaseCountsAWrongAnswer: an answer that does not carry the
// advertisement looked up is counted apart and fails the phase, where
// counting any answer would have called it a success. The edge's own
// advertisement W0 answers both W0 and the prefix query W* from its cache;
// only the first is the advertisement asked for. A name nobody published
// times out.
func TestLookupPhaseCountsAWrongAnswer(t *testing.T) {
	o := lossyOverlay(t, 0, 2, 1)
	o.StartAll()
	o.Sched.Run(5 * time.Minute)
	publish(o.Edges[1:], [][]*advertisement.Resource{resources("w-", "W", 1)}, 0)
	ps, err := lookupPhase{peers: o.Edges[1:], targets: [][]string{{"W0", "W*", "missing"}},
		gap: time.Second, afterRefusal: time.Second, horizon: 5 * time.Minute}.run(o)
	if err == nil {
		t.Error("a phase with a wrong answer passed")
	}
	if ps.Attempted != 3 || ps.Succeeded != 1 || ps.Wrong != 1 || ps.Timeouts != 1 || ps.Latency.N() != 1 {
		t.Errorf("got %d attempted, %d ok, %d wrong, %d timeouts, %d latencies; want 3, 1, 1, 1, 1",
			ps.Attempted, ps.Succeeded, ps.Wrong, ps.Timeouts, ps.Latency.N())
	}
}
