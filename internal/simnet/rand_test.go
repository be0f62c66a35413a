package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// draw takes the k-th kind of draw from r and renders its value. Perm and
// Intn consume a data-dependent number of register steps, so a position
// miscounted by one shows up within a few draws.
func draw(r *rand.Rand, k int) string {
	switch k {
	case 0:
		return fmt.Sprint(r.Uint64())
	case 1:
		return fmt.Sprint(r.Int63())
	case 2:
		return fmt.Sprint(r.Intn(3))
	case 3:
		return fmt.Sprint(r.Float64())
	default:
		return fmt.Sprint(r.Perm(5))
	}
}

// TestReleasedStreamContinues is the property every released edge relies on:
// a node's stream is (seed, draws consumed), and the register is only a cache
// of it. Two envs created at the same index under the same master seed draw
// the same random interleaving of Uint64/Int63/Intn/Float64/Perm; one of them
// releases its register at random points (twice in a row now and then). The
// values must be identical, the register gone after each release and back
// after the next draw.
func TestReleasedStreamContinues(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		kept := NewScheduler(seed).NewEnv("kept")
		released := NewScheduler(seed).NewEnv("released")
		if kept.RandResident() || released.RandResident() {
			t.Fatalf("seed %d: NewEnv built a register before the first draw", seed)
		}
		script := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			for n := script.Intn(3); n > 0 && script.Intn(2) == 0; n-- {
				released.ReleaseRand()
				if released.RandResident() || released.rng != nil || released.src != nil {
					t.Fatalf("seed %d, draw %d: a released env still holds its register", seed, i)
				}
			}
			k := script.Intn(5)
			want, got := draw(kept.Rand(), k), draw(released.Rand(), k)
			if got != want {
				t.Fatalf("seed %d, draw %d (kind %d): released stream drew %s, never-released stream %s", seed, i, k, got, want)
			}
			if !released.RandResident() {
				t.Fatalf("seed %d, draw %d: a draw left no register resident", seed, i)
			}
		}
		if kept.src.n != released.src.n {
			t.Fatalf("seed %d: positions diverged: %d and %d", seed, kept.src.n, released.src.n)
		}
	}
}

// TestReleasedStreamRegisterIsPooled: a release hands the register to the
// pool, so building a population of edges — create, draw the peer ID, release
// — seeds one register over and over instead of allocating 5.4 KB per edge.
// (A bound on bytes, not an exact count: sync.Pool may drop an item, and does
// so at random under the race detector.)
func TestReleasedStreamRegisterIsPooled(t *testing.T) {
	const edges = 1000
	s := NewScheduler(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < edges; i++ {
		e := s.NewEnv("edge")
		e.Rand().Uint64()
		e.ReleaseRand()
	}
	runtime.ReadMemStats(&after)
	perEdge := (after.TotalAlloc - before.TotalAlloc) / edges
	t.Logf("%d B allocated per edge built and released", perEdge)
	if perEdge > 2500 {
		t.Fatalf("building and releasing an edge env allocates %d B: the register is not reused", perEdge)
	}
}
