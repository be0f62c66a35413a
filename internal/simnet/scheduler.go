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
// The event queue is built for throughput: a 4-ary min-heap over inline
// event values (no per-event heap allocation, better cache locality and
// fewer levels than a binary heap), lazy tombstone cancellation (Cancel
// invalidates a generation counter instead of restructuring the heap; dead
// entries are discarded when they surface), and a payload-carrying event
// form (AtCall/AfterCall) that lets hot callers like the simulated transport
// schedule work without allocating a closure per event.
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
)

// event is one scheduled callback, stored inline in the heap slice.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal times: determinism
	fn  func(any)
	arg any
	// slot indexes the scheduler's generation table for cancelable events;
	// -1 marks fire-and-forget events (AtCall/AfterCall), which skip the
	// table entirely. gen is the slot generation captured at schedule time:
	// a mismatch at pop time means the event was canceled (tombstone).
	slot int32
	gen  uint32
}

// heapArity is the fan-out of the d-ary heap. Four keeps the tree two
// levels shallower than binary at simulation scale and sifts touch
// cache-adjacent children.
const heapArity = 4

// noSlot marks events without a cancellation handle.
const noSlot int32 = -1

// Scheduler owns virtual time and the event queue.
type Scheduler struct {
	now  time.Duration
	heap []event
	live int // heap entries that are not tombstones
	// slots holds the current generation per cancellation slot; free is the
	// free-list of recyclable slot indices. A slot is released (generation
	// bumped) when its event fires or is canceled, so stale Event handles
	// and heap tombstones both fail the generation check.
	slots []uint32
	free  []int32
	// owners maps each live slot to the index of the NodeEnv that scheduled
	// it (ownerNone for events scheduled directly on the scheduler), and
	// ownedPending counts live owned events per env — the per-node
	// pending-callback ledger behind PendingFor. The ledger is what lets
	// lifecycle tests *prove* a stopped node canceled every timer it owned.
	owners       []int32
	ownedPending []int32
	seq          uint64
	seed         int64
	nodes        int // count of envs created, used to derive per-node seeds
	steps        uint64
	halted       bool
}

// ownerNone marks events not owned by any NodeEnv.
const ownerNone int32 = -1

// NewScheduler creates an empty scheduler at virtual time zero. seed is the
// experiment master seed from which every per-node RNG stream derives.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Pending returns the number of events currently queued (canceled events
// are discounted immediately, even while their tombstones still occupy heap
// slots).
func (s *Scheduler) Pending() int { return s.live }

// callFunc adapts a plain func() callback to the payload-carrying event
// form without allocating: func values are pointer-shaped, so boxing one
// into the arg field is allocation-free.
func callFunc(arg any) { arg.(func())() }

// push appends an event value and restores the heap property, sifting with
// a hole instead of pairwise swaps (events are 48 bytes; this halves the
// copies).
func (s *Scheduler) push(e event) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !lessEv(&e, &s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = e
}

func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popTop removes and returns the minimum event.
func (s *Scheduler) popTop() event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/arg references to the GC
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown places e at index i and sifts it down with a hole instead of
// pairwise swaps.
func (s *Scheduler) siftDown(i int, e event) {
	h := s.heap
	n := len(h)
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		best := c
		for k := c + 1; k < end; k++ {
			if lessEv(&h[k], &h[best]) {
				best = k
			}
		}
		if !lessEv(&h[best], &e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// compactThreshold is the tombstone count below which Cancel never
// compacts.
const compactThreshold = 64

// maybeCompact rebuilds the heap without tombstones once they outnumber
// live events. Without this, a workload that repeatedly schedules a
// far-future event and cancels it (timeout renewal) would keep every
// tombstone — and the closures it pins — until virtual time reaches the
// deadline.
func (s *Scheduler) maybeCompact() {
	dead := len(s.heap) - s.live
	if dead < compactThreshold || dead <= s.live {
		return
	}
	kept := s.heap[:0]
	for i := range s.heap {
		if !s.tombstone(&s.heap[i]) {
			kept = append(kept, s.heap[i])
		}
	}
	for i := len(kept); i < len(s.heap); i++ {
		s.heap[i] = event{} // release dropped fn/arg references
	}
	s.heap = kept
	// Heapify bottom-up; the (at, seq) order is total, so the resulting
	// pop order — and therefore replay determinism — is unchanged.
	if len(kept) > 1 {
		for i := (len(kept) - 2) / heapArity; i >= 0; i-- {
			s.siftDown(i, s.heap[i])
		}
	}
}

// tombstone reports whether a popped or peeked event was canceled.
func (s *Scheduler) tombstone(e *event) bool {
	return e.slot != noSlot && s.slots[e.slot] != e.gen
}

// dropTombstones discards canceled entries sitting at the heap top so the
// head, if any, is a live event.
func (s *Scheduler) dropTombstones() {
	for len(s.heap) > 0 && s.tombstone(&s.heap[0]) {
		s.popTop()
	}
}

// schedule enqueues fn(arg) at absolute time t. Scheduling in the past is a
// programming error and panics: silently reordering history would destroy
// the determinism guarantee.
func (s *Scheduler) schedule(t time.Duration, fn func(any), arg any, slot int32, gen uint32) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	s.push(event{at: t, seq: s.seq, fn: fn, arg: arg, slot: slot, gen: gen})
	s.seq++
	s.live++
}

// allocSlot reserves a cancellation slot, recycling released ones.
func (s *Scheduler) allocSlot() (int32, uint32) {
	if k := len(s.free); k > 0 {
		slot := s.free[k-1]
		s.free = s.free[:k-1]
		return slot, s.slots[slot]
	}
	s.slots = append(s.slots, 0)
	s.owners = append(s.owners, ownerNone)
	return int32(len(s.slots) - 1), 0
}

// releaseSlot invalidates outstanding handles/tombstones for the slot,
// settles the owner ledger and returns the slot to the free list.
func (s *Scheduler) releaseSlot(slot int32) {
	s.slots[slot]++
	if owner := s.owners[slot]; owner != ownerNone {
		s.ownedPending[owner]--
		s.owners[slot] = ownerNone
	}
	s.free = append(s.free, slot)
}

// At schedules fn at absolute virtual time t and returns a cancelable
// handle.
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	return s.at(t, fn, ownerNone)
}

// at is the owner-aware scheduling core behind At/After and NodeEnv.After.
func (s *Scheduler) at(t time.Duration, fn func(), owner int32) Event {
	slot, gen := s.allocSlot()
	s.owners[slot] = owner
	if owner != ownerNone {
		s.ownedPending[owner]++
	}
	s.schedule(t, callFunc, fn, slot, gen)
	return Event{s: s, slot: slot, gen: gen}
}

// After schedules fn at now+d.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.at(s.now+d, fn, ownerNone)
}

// after is the owner-aware relative form.
func (s *Scheduler) after(d time.Duration, fn func(), owner int32) Event {
	if d < 0 {
		d = 0
	}
	return s.at(s.now+d, fn, owner)
}

// AtCall schedules fn(arg) at absolute virtual time t without a
// cancellation handle. When fn is a long-lived func value (e.g. a method
// value stored once) and arg is a pointer, the call allocates nothing —
// this is the transport's per-message fast path.
func (s *Scheduler) AtCall(t time.Duration, fn func(any), arg any) {
	s.schedule(t, fn, arg, noSlot, 0)
}

// AfterCall schedules fn(arg) at now+d without a cancellation handle.
func (s *Scheduler) AfterCall(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn, arg, noSlot, 0)
}

// Event is a generation-checked handle to a scheduled event, supporting
// cancellation. The zero value is inert. Handles are values; copying is
// cheap and safe.
type Event struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Cancel removes the event from the queue if it has not fired. It reports
// whether the event was still pending. Cancellation is lazy: the heap entry
// becomes a tombstone discarded when it reaches the top, so Cancel is O(1)
// instead of container/heap's O(log n) restructure.
func (ev Event) Cancel() bool {
	s := ev.s
	if s == nil || s.slots[ev.slot] != ev.gen {
		return false // already fired, canceled, or zero handle
	}
	s.releaseSlot(ev.slot)
	s.live--
	s.maybeCompact()
	return true
}

// Step executes the single earliest live event. It reports false if no live
// events remain.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		e := s.popTop()
		if s.tombstone(&e) {
			continue
		}
		if e.at < s.now {
			panic("simnet: time went backwards")
		}
		if e.slot != noSlot {
			s.releaseSlot(e.slot)
		}
		s.live--
		s.now = e.at
		s.steps++
		e.fn(e.arg)
		return true
	}
	return false
}

// Run executes events until the queue drains or virtual time would exceed
// until. Events at exactly `until` execute. It returns the number of events
// executed.
func (s *Scheduler) Run(until time.Duration) uint64 {
	start := s.steps
	s.halted = false
	for !s.halted {
		s.dropTombstones()
		if len(s.heap) == 0 || s.heap[0].at > until {
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

// nextEventAt returns the time of the earliest live event, discarding any
// tombstones sitting at the heap top. The sharded engine uses it to pick the
// next conservative window start.
func (s *Scheduler) nextEventAt() (time.Duration, bool) {
	s.dropTombstones()
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
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
		s.dropTombstones()
		if len(s.heap) == 0 || s.heap[0].at >= end {
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
	for s.live > 0 && !s.halted {
		s.Step()
	}
	s.dropTombstones()
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
