package simnet

import (
	"math/rand"
	"sync"
)

// A node's RNG stream is the pair (derived seed, draws consumed). The
// 607-word feedback register math/rand's source needs to produce the next
// value (~5.4 KB with its wrappers, by a wide margin the largest object an
// idle simulated edge would retain) is a cache of that pair: Rand builds it
// on demand — a pooled register re-seeded from the node's seed and
// fast-forwarded one step per draw already consumed — and ReleaseRand hands
// it back, so the stream continues bit-for-bit across any number of
// releases. An edge draws only at construction (its peer ID), so the
// deployment layer releases every edge's register once, right after
// node.New; a rendezvous draws on its happy peerview ticks and keeps its
// register, as does an edge from its first such tick after a promotion.

// countingSource wraps the stock math/rand source and counts feedback
// steps. Both Int63 and Uint64 advance the underlying register by exactly
// one step, so the count alone pins the stream position. Values pass
// through untouched: streams are bit-identical to an unwrapped source.
type countingSource struct {
	inner rand.Source64
	n     uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.inner.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.inner.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.n = 0
	c.inner.Seed(seed)
}

// sourcePool recycles registers between nodes: building a population of
// edges seeds one register over and over instead of allocating one per
// edge, and a promoted edge takes its register from here.
var sourcePool = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// Rand implements env.Env. It is the one place a register is made: with
// none resident, the stream is rebuilt at its recorded position.
func (n *NodeEnv) Rand() *rand.Rand {
	if n.rng == nil {
		inner := sourcePool.Get().(rand.Source64)
		inner.Seed(n.seed)
		for i := uint64(0); i < n.pos; i++ {
			inner.Uint64()
		}
		n.src = &countingSource{inner: inner, n: n.pos}
		n.rng = rand.New(n.src)
	}
	return n.rng
}

// ReleaseRand returns the RNG register to the pool, keeping only the stream
// position; the next Rand call rebuilds the identical stream. A *rand.Rand
// obtained before the release must not be used after it. Must not be called
// while other goroutines may draw — the env serialization contract already
// guarantees that.
func (n *NodeEnv) ReleaseRand() {
	if n.rng == nil {
		return
	}
	n.pos = n.src.n
	sourcePool.Put(n.src.inner)
	n.src = nil
	n.rng = nil
}

// RandResident reports whether the RNG register is currently materialized.
func (n *NodeEnv) RandResident() bool { return n.rng != nil }
