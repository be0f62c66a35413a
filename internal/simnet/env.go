package simnet

import (
	"math/rand"
	"sync"
	"time"

	"jxta/internal/env"
)

// NodeEnv adapts a Scheduler to the env.Env interface for one simulated
// node. All NodeEnvs of a scheduler share the single-threaded event loop, so
// the serialization contract holds trivially.
type NodeEnv struct {
	s    *Scheduler
	name string
	// The node's RNG stream is (seed, pos); rng and src are its register,
	// nil until the first draw and after a ReleaseRand (see rand.go).
	rng  *rand.Rand
	src  *countingSource
	seed int64
	pos  uint64
	// idx is the env's creation index; it keys the queue's per-node
	// pending-callback ledger (Pending).
	idx int32
}

var _ env.Env = (*NodeEnv)(nil)

// NewEnv creates a node environment with its own deterministic RNG stream.
// Envs must be created in a fixed order for reproducibility; the stream is
// derived from the creation index.
func (s *Scheduler) NewEnv(name string) *NodeEnv {
	idx := s.q.AddOwner()
	return &NodeEnv{s: s, name: name, seed: deriveSeed(s.seed, int64(idx)), idx: idx}
}

// Now implements env.Env.
func (n *NodeEnv) Now() time.Duration { return n.s.Now() }

// Name implements env.Env.
func (n *NodeEnv) Name() string { return n.name }

// After implements env.Env. The callback is recorded against this env in
// the queue's per-node ledger until it fires or is canceled.
func (n *NodeEnv) After(d time.Duration, fn func()) env.Event {
	return n.s.q.Arm(n.s.now+max(d, 0), fn, n.idx)
}

// Pending returns the number of live cancelable callbacks this env owns —
// every timer a node's services armed through After that has neither fired
// nor been canceled. A leak-free node teardown leaves this at zero, which
// the lifecycle regression tests assert. (Fire-and-forget transport
// deliveries are network-owned, not node-owned, and are not counted.)
func (n *NodeEnv) Pending() int { return n.s.q.Owned(n.idx) }

// Locker implements env.Env: nil, as the event loop is the only context.
func (n *NodeEnv) Locker() sync.Locker { return nil }
