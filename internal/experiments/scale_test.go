package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// scaleFingerprint renders the deterministic fields of a scale point —
// wall-clock measurements excluded, engine instrumentation included (window
// and exchange counts depend only on event content, so they replay too).
func scaleFingerprint(res ScaleResult) string {
	return fmt.Sprintf("steps=%d msgs=%d bytes=%d dropped=%d view=%s leased=%d windows=%d maxbusy=%d cross=%d",
		res.Steps, res.Messages, res.Bytes, res.Dropped,
		hexFloat(res.MeanView), res.Leased,
		res.Windows, res.MaxBusy, res.CrossShard)
}

// goldenScaleSpec is the pinned multi-shard scenario: four shards, a
// rendezvous tier spanning every Grid'5000 site, edges co-located with
// their rendezvous, short leases for cross-shard renewal traffic.
func goldenScaleSpec() ScaleSpec {
	return ScaleSpec{R: 18, Edges: 54, Shards: 4,
		Duration: 10 * time.Minute, Lease: 2 * time.Minute, Seed: 7}
}

// goldenScale pins the sharded engine's determinism contract: the scenario
// replays bit-for-bit, window count included, at any GOMAXPROCS. The serial
// goldens prove Shards=1 is byte-identical to the original engine. Recapture
// per the note at the top of golden_test.go only for intended model changes.
//
// The string is not a new trajectory. It is the window barrier's fingerprint
// as PR 6 captured it, pinned as goldenScaleBarrier from PR 9 to PR 25
// while a window-pipelined engine was the default. Its protocol fields —
// steps, messages, bytes, view, leases, cross-shard events — equal those of
// the deleted pipelined golden; only the window count differed (354 vs 418).
const goldenScale = "steps=8722 msgs=3036 bytes=1448039 dropped=0 view=0x1.1p+04 leased=54 windows=354 maxbusy=4 cross=1430"

func TestGoldenScaleShardedReplay(t *testing.T) {
	res, err := RunScale(goldenScaleSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := scaleFingerprint(res)
	if goldenScale == "UNSET" {
		t.Fatalf("golden uninitialized; capture this:\n%s", got)
	}
	if got != goldenScale {
		t.Fatalf("sharded golden diverged:\n got %s\nwant %s", got, goldenScale)
	}
	if res.Leased != res.Spec.Edges {
		t.Fatalf("only %d/%d edges leased", res.Leased, res.Spec.Edges)
	}
}

// TestGoldenScaleBarrierReplay pins the window barrier's golden — the
// string it has held since PR 6 — with every shard window on one OS
// thread: the golden itself, not only a replay of it, is independent of
// GOMAXPROCS.
func TestGoldenScaleBarrierReplay(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	res, err := RunScale(goldenScaleSpec())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaleFingerprint(res); got != goldenScale {
		t.Fatalf("barrier golden diverged at GOMAXPROCS=1:\n got %s\nwant %s", got, goldenScale)
	}
}

// TestScaleShardedGOMAXPROCSInvariant is the cross-GOMAXPROCS determinism
// property: the window coordinator decides barriers from event content
// alone, so the same spec must produce byte-identical stats whether shard
// windows run on one OS thread or eight.
func TestScaleShardedGOMAXPROCSInvariant(t *testing.T) {
	spec := ScaleSpec{R: 18, Edges: 36, Shards: 8,
		Duration: 6 * time.Minute, Lease: time.Minute, Seed: 21}
	var base string
	for _, gmp := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		res, err := RunScale(spec)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		fp := scaleFingerprint(res)
		if base == "" {
			base = fp
			if res.CrossShard == 0 {
				t.Fatal("scenario exercised no cross-shard traffic")
			}
			continue
		}
		if fp != base {
			t.Fatalf("GOMAXPROCS=%d diverged:\n got %s\nwant %s", gmp, fp, base)
		}
	}
}

// TestScaleSerialPath pins that Shards=1 through the scale driver uses the
// serial engine (no windows, no exchange machinery).
func TestScaleSerialPath(t *testing.T) {
	res, err := RunScale(ScaleSpec{R: 6, Edges: 6, Shards: 1,
		Duration: 2 * time.Minute, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 0 || res.CrossShard != 0 {
		t.Fatalf("serial run reports sharded instrumentation: %+v", res)
	}
	if res.Steps == 0 || res.Leased != 6 {
		t.Fatalf("serial scale run did not converge: %+v", res)
	}
}
