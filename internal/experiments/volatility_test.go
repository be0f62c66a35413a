package experiments

import (
	"testing"
	"time"
)

// TestVolatilityPromotionHealsAttrition kills the entire original
// rendezvous tier with no rejoin: the overlay must survive purely through
// edge→rendezvous promotion, and the searcher's queries keep succeeding.
func TestVolatilityPromotionHealsAttrition(t *testing.T) {
	res, err := RunVolatility(VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery: []time.Duration{90 * time.Second},
		Kills:     4, Queries: 40, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Promotions == 0 {
		t.Fatal("full attrition healed without a single promotion?")
	}
	if pt.LiveTier == 0 {
		t.Fatal("no rendezvous tier survived")
	}
	if pt.Phase.Succeeded < pt.Phase.Timeouts {
		t.Fatalf("discovery mostly failed under attrition: ok=%d timeouts=%d",
			pt.Phase.Succeeded, pt.Phase.Timeouts)
	}
}

// TestVolatilityRejoinReconverges drives the kill/rejoin mode: every victim
// returns, so the tier re-converges to the full original membership.
func TestVolatilityRejoinReconverges(t *testing.T) {
	res, err := RunVolatility(VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery:   []time.Duration{90 * time.Second},
		RejoinAfter: 3 * time.Minute,
		Kills:       4, Queries: 40, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.LiveTier != 4 {
		t.Fatalf("live tier = %d after full rejoin, want 4", pt.LiveTier)
	}
	if !pt.Reconverged {
		t.Fatalf("tier did not re-converge (mean view %.1f)", pt.MeanView)
	}
}

// TestVolatilityIslandMergeConverges re-runs the attrition scenario with
// the island merge on: the same spec that fragments into three islands
// (TestVolatilityPromotionHealsAttrition leaves reconv=false) must now
// gossip itself back into a single tier with full discovery success. It
// also checks the sweep stays fragmented when the merge is off, so the
// comparison is meaningful.
func TestVolatilityIslandMergeConverges(t *testing.T) {
	spec := VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery: []time.Duration{90 * time.Second},
		Kills:     4, Queries: 40, Seed: 42,
	}
	off, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	if off.Points[0].Reconverged {
		t.Skip("attrition no longer fragments without the merge; scenario lost its point")
	}
	spec.IslandMerge = true
	on, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	pt := on.Points[0]
	if pt.Merge == nil {
		t.Fatal("no merge phase recorded")
	}
	if pt.Merge.Merges == 0 {
		t.Fatal("no merge handshake completed")
	}
	if !pt.Merge.Converged || !pt.Reconverged || pt.LiveTier == 0 {
		t.Fatalf("tier did not converge: live=%d view=%.2f conv=%v",
			pt.LiveTier, pt.MeanView, pt.Merge.Converged)
	}
	if pt.Merge.Phase.Timeouts != 0 {
		t.Fatalf("post-merge discovery below 100%%: ok=%d timeouts=%d",
			pt.Merge.Phase.Succeeded, pt.Merge.Phase.Timeouts)
	}
}

// TestIslandMergeSeedSweep writes down what seed 42 hides (ROADMAP 1(b)): the
// island-merge golden's scenario — every original rendezvous killed at 90 s
// intervals, the promoted successors left to find each other — over seeds
// 1–40. At the commit that added this test the tier reconverges on 9 seeds
// (7, 20, 23, 29, 30, 32, 34, 36, 38) and post-merge discovery answers 40/40
// on 24; most failing seeds end live=2 view=0 merges=0, two promoted islands
// that never learn of each other. The floors are a ratchet: a fix raises
// them; neither they nor the golden's seed are to be chosen around a failure.
// Each seed also runs with IslandMerge off, which records ROADMAP item 13's
// verdict that island merge earns its place: more seeds end Reconverged with
// it than without it (9 against 0 when this was added).
func TestIslandMergeSeedSweep(t *testing.T) {
	const convergedFloor, answeredFloor = 9, 24
	converged, answered := 0, 0
	reconverged := [2]int{} // merge off, on
	t.Log("seed live view  conv  merges post-ok  reconverged-without-merge")
	for seed := int64(1); seed <= 40; seed++ {
		var pts [2]VolatilityPoint
		for i, merge := range []bool{false, true} {
			res, err := RunVolatility(VolatilitySpec{
				R: 4, EdgesPerRdv: 2,
				KillEvery: []time.Duration{90 * time.Second},
				Kills:     4, Queries: 40, Seed: seed,
				IslandMerge: merge,
			})
			if err != nil {
				t.Fatal(err)
			}
			if pts[i] = res.Points[0]; pts[i].Reconverged {
				reconverged[i]++
			}
		}
		pt := pts[1]
		t.Logf("%4d %4d %4.2f %5v %6d %4d/40  %v", seed, pt.LiveTier, pt.MeanView,
			pt.Merge.Converged, pt.Merge.Merges, pt.Merge.Phase.Succeeded, pts[0].Reconverged)
		if pt.Merge.Converged {
			converged++
		}
		if pt.Merge.Phase.Succeeded == 40 {
			answered++
		}
	}
	t.Logf("%d of 40 seeds reconverge, %d answer 40/40 after the merge phase", converged, answered)
	t.Logf("Reconverged on %d seeds with the merge, %d without it", reconverged[1], reconverged[0])
	if converged < convergedFloor || answered < answeredFloor {
		t.Fatalf("%d of 40 seeds reconverge (floor %d), %d answer 40/40 post-merge (floor %d)",
			converged, convergedFloor, answered, answeredFloor)
	}
	if reconverged[1] <= reconverged[0] {
		t.Fatalf("island merge earns nothing: %d seeds reconverge with it, %d without it", reconverged[1], reconverged[0])
	}
}

// TestMergePhaseKillsExceedR: an attrition spec asking for more kills than
// rendezvous exist must not hang the merge phase waiting for a kill quota
// that can never fill (regression; only R kills can land without rejoins).
func TestMergePhaseKillsExceedR(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := RunVolatility(VolatilitySpec{
			R: 3, EdgesPerRdv: 1, Kills: 9, Queries: 5,
			KillEvery: []time.Duration{time.Minute}, Seed: 1, IslandMerge: true,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunVolatility hung with Kills > R")
	}
}

func TestVolatilityRejectsTinyOverlay(t *testing.T) {
	if _, err := RunVolatility(VolatilitySpec{R: 1}); err == nil {
		t.Fatal("R=1 accepted")
	}
}
