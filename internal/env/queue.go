package env

import "time"

// Queue is the timer queue both Envs run on. It pops in (deadline, arm order)
// and its owner serializes every call. It is built for throughput: a 4-ary
// min-heap over inline event values (no per-event heap allocation, better
// cache locality and fewer levels than a binary heap), lazy tombstone
// cancellation (Cancel invalidates a generation counter instead of
// restructuring the heap; dead entries are discarded when they surface), and
// a payload-carrying event form (Post) that lets hot callers like the
// simulated transport schedule work without allocating a closure per event.
type Queue struct {
	heap []event
	live int // heap entries that are not tombstones
	// slots holds the current generation per cancellation slot; free is the
	// free-list of recyclable slot indices. A slot is released (generation
	// bumped) when its event fires or is canceled, so stale Event handles
	// and heap tombstones both fail the generation check.
	slots []uint32
	free  []int32
	// owners maps each live slot to the owner that armed it (NoOwner for
	// events armed by nobody in particular), and ownedPending counts live
	// owned events per owner — the per-node pending-callback ledger. The
	// ledger is what lets lifecycle tests *prove* a stopped node canceled
	// every timer it owned.
	owners       []int32
	ownedPending []int32
	seq          uint64
}

// event is one scheduled callback, stored inline in the heap slice.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal times: determinism
	fn  func(any)
	arg any
	// slot indexes the queue's generation table for cancelable events;
	// -1 marks fire-and-forget events (Post), which skip the table
	// entirely. gen is the slot generation captured at schedule time: a
	// mismatch at pop time means the event was canceled (tombstone).
	slot int32
	gen  uint32
}

// heapArity is the fan-out of the d-ary heap. Four keeps the tree two
// levels shallower than binary at simulation scale and sifts touch
// cache-adjacent children.
const heapArity = 4

// noSlot marks events without a cancellation handle.
const noSlot int32 = -1

// NoOwner marks events not counted against any owner.
const NoOwner int32 = -1

// Len returns the number of live events (canceled events are discounted
// immediately, even while their tombstones still occupy heap slots).
func (q *Queue) Len() int { return q.live }

// AddOwner opens a ledger entry and returns its index for Arm.
func (q *Queue) AddOwner() int32 {
	q.ownedPending = append(q.ownedPending, 0)
	return int32(len(q.ownedPending) - 1)
}

// Owned returns the number of live events armed for owner.
func (q *Queue) Owned(owner int32) int { return int(q.ownedPending[owner]) }

// callFunc adapts a plain func() callback to the payload-carrying event
// form without allocating: func values are pointer-shaped, so boxing one
// into the arg field is allocation-free.
func callFunc(arg any) { arg.(func())() }

// push appends an event value and restores the heap property, sifting with
// a hole instead of pairwise swaps (events are 48 bytes; this halves the
// copies).
func (q *Queue) push(e event) {
	q.heap = append(q.heap, e)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !lessEv(&e, &q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		i = p
	}
	q.heap[i] = e
}

func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popTop removes and returns the minimum event.
func (q *Queue) popTop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/arg references to the GC
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// siftDown places e at index i and sifts it down with a hole instead of
// pairwise swaps.
func (q *Queue) siftDown(i int, e event) {
	h := q.heap
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

// compactThreshold is the tombstone count below which Cancel compacts only
// an empty queue.
const compactThreshold = 64

// maybeCompact rebuilds the heap without tombstones once they outnumber
// live events, or none is live. Without this, a workload that repeatedly
// schedules a far-future event and cancels it (timeout renewal) would keep
// every tombstone — and the closures it pins, on the wall clock a stopped
// node's — until the clock reaches the deadline.
func (q *Queue) maybeCompact() {
	dead := len(q.heap) - q.live
	if q.live > 0 && (dead < compactThreshold || dead <= q.live) {
		return
	}
	kept := q.heap[:0]
	for i := range q.heap {
		if !q.tombstone(&q.heap[i]) {
			kept = append(kept, q.heap[i])
		}
	}
	for i := len(kept); i < len(q.heap); i++ {
		q.heap[i] = event{} // release dropped fn/arg references
	}
	q.heap = kept
	// Heapify bottom-up; the (at, seq) order is total, so the resulting
	// pop order — and therefore replay determinism — is unchanged.
	if len(kept) > 1 {
		for i := (len(kept) - 2) / heapArity; i >= 0; i-- {
			q.siftDown(i, q.heap[i])
		}
	}
}

// tombstone reports whether a popped or peeked event was canceled.
func (q *Queue) tombstone(e *event) bool {
	return e.slot != noSlot && q.slots[e.slot] != e.gen
}

// Next returns the deadline of the earliest live event, discarding any
// tombstones sitting at the heap top.
func (q *Queue) Next() (time.Duration, bool) {
	for len(q.heap) > 0 && q.tombstone(&q.heap[0]) {
		q.popTop()
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes the earliest live event and returns it for the caller to run
// as fn(arg). Its handle is spent: Cancel reports false from now on.
func (q *Queue) Pop() (at time.Duration, fn func(any), arg any, ok bool) {
	if _, ok := q.Next(); !ok {
		return 0, nil, nil, false
	}
	e := q.popTop()
	if e.slot != noSlot {
		q.releaseSlot(e.slot)
	}
	q.live--
	return e.at, e.fn, e.arg, true
}

func (q *Queue) schedule(at time.Duration, fn func(any), arg any, slot int32, gen uint32) {
	q.push(event{at: at, seq: q.seq, fn: fn, arg: arg, slot: slot, gen: gen})
	q.seq++
	q.live++
}

// allocSlot reserves a cancellation slot, recycling released ones.
func (q *Queue) allocSlot() (int32, uint32) {
	if k := len(q.free); k > 0 {
		slot := q.free[k-1]
		q.free = q.free[:k-1]
		return slot, q.slots[slot]
	}
	q.slots = append(q.slots, 0)
	q.owners = append(q.owners, NoOwner)
	return int32(len(q.slots) - 1), 0
}

// releaseSlot invalidates outstanding handles/tombstones for the slot,
// settles the owner ledger and returns the slot to the free list.
func (q *Queue) releaseSlot(slot int32) {
	q.slots[slot]++
	if owner := q.owners[slot]; owner != NoOwner {
		q.ownedPending[owner]--
		q.owners[slot] = NoOwner
	}
	q.free = append(q.free, slot)
}

// Arm queues fn at deadline at, counted against owner (NoOwner for none),
// and returns its cancelable handle.
func (q *Queue) Arm(at time.Duration, fn func(), owner int32) Event {
	slot, gen := q.allocSlot()
	q.owners[slot] = owner
	if owner != NoOwner {
		q.ownedPending[owner]++
	}
	q.schedule(at, callFunc, fn, slot, gen)
	return Event{q: q, slot: slot, gen: gen}
}

// Post queues fn(arg) at deadline at without a cancellation handle. When fn
// is a long-lived func value (e.g. a method value stored once) and arg is a
// pointer, the call allocates nothing — this is the transport's per-message
// fast path.
func (q *Queue) Post(at time.Duration, fn func(any), arg any) {
	q.schedule(at, fn, arg, noSlot, 0)
}

// Event is a generation-checked handle to a queued event, and what every
// Env's After returns. The zero value is inert. Handles are values; copying
// is cheap and safe, and returning one allocates nothing.
type Event struct {
	q    *Queue
	slot int32
	gen  uint32
}

// Cancel removes the event from the queue if it has not fired. It reports
// whether the event was still pending. Cancellation is lazy: the heap entry
// becomes a tombstone discarded when it reaches the top, so Cancel is O(1)
// instead of container/heap's O(log n) restructure.
func (ev Event) Cancel() bool {
	q := ev.q
	if q == nil || q.slots[ev.slot] != ev.gen {
		return false // already fired, canceled, or zero handle
	}
	q.releaseSlot(ev.slot)
	q.live--
	q.maybeCompact()
	return true
}
