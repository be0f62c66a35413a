// Package simnet is a deterministic discrete-event simulation engine. It is
// the substrate standing in for the Grid'5000 testbed: the paper's
// experiments run 580 rendezvous peers for two hours of virtual time, which
// the engine executes in seconds while replaying bit-for-bit under a fixed
// seed.
//
// The engine is single-threaded: events execute strictly in (time, sequence)
// order, so all per-node protocol state is safe without locks, matching the
// env.Env contract. Parallelism lives one level up: independent experiments
// (sweep points, each with its own Scheduler) run concurrently via
// experiments.Sweep — overlays share nothing, so that scales linearly with
// cores without any cross-scheduler synchronization.
//
// The event queue is env.Queue, the one a live node's env.Real runs on the
// wall clock; the Scheduler adds virtual time to it.
//
// A node's RNG stream is the pair (derived seed, draws consumed); the 5.4 KB
// math/rand register that produces it is built on the first draw and can be
// handed back at any time (NodeEnv.ReleaseRand, rand.go). That, not a mode,
// is what keeps an idle simulated edge small: it draws its peer ID and
// nothing after, and the deployment layer releases the register right then.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"jxta/internal/env"
)

// Scheduler owns virtual time and the event queue.
type Scheduler struct {
	q      env.Queue
	now    time.Duration
	seed   int64
	steps  uint64
	halted bool
}

// NewScheduler creates an empty scheduler at virtual time zero. seed is the
// experiment master seed from which every per-node RNG stream derives.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Pending returns the number of live events queued (env.Queue.Len).
func (s *Scheduler) Pending() int { return s.q.Len() }

// After schedules fn at now+d.
func (s *Scheduler) After(d time.Duration, fn func()) env.Event {
	return s.q.Arm(s.now+max(d, 0), fn, env.NoOwner)
}

// AtCall schedules fn(arg) at absolute virtual time t without a
// cancellation handle (env.Queue.Post): the transport's per-message fast
// path. Scheduling in the past is a programming error and panics: silently
// reordering history would destroy the determinism guarantee.
func (s *Scheduler) AtCall(t time.Duration, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	s.q.Post(t, fn, arg)
}

// Step executes the single earliest live event. It reports false if no live
// events remain.
func (s *Scheduler) Step() bool {
	at, fn, arg, ok := s.q.Pop()
	if !ok {
		return false
	}
	if at < s.now {
		panic("simnet: time went backwards")
	}
	s.now = at
	s.steps++
	fn(arg)
	return true
}

// Run executes events until the queue drains or virtual time would exceed
// until. Events at exactly `until` execute. It returns the number of events
// executed.
func (s *Scheduler) Run(until time.Duration) uint64 {
	start := s.steps
	s.halted = false
	for !s.halted {
		if at, ok := s.q.Next(); !ok || at > until {
			break
		}
		s.Step()
	}
	if !s.halted && s.now < until {
		// Even with no events, time logically advances to the horizon so
		// subsequent scheduling is relative to it. A halted run must NOT
		// jump ahead: live events (protocol tickers) between the halt point
		// and the horizon would land in the past and wedge the next Run.
		s.now = until
	}
	return s.steps - start
}

// runWindow executes every live event with at < end — an exclusive bound,
// unlike Run's inclusive one — then advances now to end. It is the per-shard
// body of one conservative lookahead window: events the shard creates for
// itself inside the window run in the same pass; events for other shards are
// queued through the sharded engine and merged at the barrier. It returns
// the number of events executed.
func (s *Scheduler) runWindow(end time.Duration) uint64 {
	start := s.steps
	for {
		if at, ok := s.q.Next(); !ok || at >= end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
	return s.steps - start
}

// RunAll executes events until the queue is empty. Protocol tickers re-arm
// themselves forever, so experiments should prefer Run(until).
func (s *Scheduler) RunAll() uint64 {
	start := s.steps
	s.halted = false
	for s.q.Len() > 0 && !s.halted {
		s.Step()
	}
	s.q.Next() // discards the tombstones left at the top
	return s.steps - start
}

// Halt stops Run/RunAll after the current event returns. Intended for
// callbacks that detect an experiment end condition early.
func (s *Scheduler) Halt() { s.halted = true }

// DeriveRand returns a deterministic RNG stream for the given index,
// decorrelated from other streams by hashing the master seed with the index
// (SplitMix64 finalizer).
func (s *Scheduler) DeriveRand(index int64) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(s.seed, index)))
}
