// Package env defines the runtime abstraction all JXTA services are written
// against. A service never reads the wall clock or sets OS timers directly;
// it asks its Env for the current time and for callbacks. This lets the same
// protocol code run unchanged either inside the deterministic discrete-event
// simulator (internal/simnet) for the paper's large-scale experiments, or on
// the real clock with real TCP transports for live deployments.
//
// Contract shared by all implementations:
//
//   - Callbacks belonging to one Env are never executed concurrently with
//     each other, so per-node protocol state needs no locking.
//   - Time is expressed as a time.Duration offset from an arbitrary epoch
//     (experiment start). Only differences are meaningful.
//   - Rand returns a source that is private to this Env; in simulation it is
//     deterministically seeded so whole experiments replay bit-for-bit.
package env

import (
	"math/rand"
	"sync"
	"time"
)

// Timer is a cancelable pending callback.
type Timer interface {
	// Cancel prevents the callback from running if it has not started yet.
	// It reports whether the callback was still pending.
	Cancel() bool
}

// Env is the per-node runtime: virtual or wall clock, timers, randomness.
type Env interface {
	// Now returns the current time as an offset from the epoch.
	Now() time.Duration
	// After schedules fn to run d from now. fn runs serialized with every
	// other callback of this Env.
	After(d time.Duration, fn func()) Timer
	// Rand returns this node's private random source.
	Rand() *rand.Rand
	// Name identifies the node for logs and metrics.
	Name() string
}

// Ticker repeatedly invokes fn every interval until Stop is called. It is a
// convenience built on Env.After, matching the peerview protocol's
// "repeat ... wait for PEERVIEW_INTERVAL" loop shape.
type Ticker struct {
	env      Env
	interval time.Duration
	fn       func()
	// tick is t.onTick, bound once: every arm hands the Env the same func
	// value, so a tick costs what the Env's timer costs and nothing here.
	tick    func()
	stopped bool
	pending Timer
}

// NewTicker starts a ticker whose first firing happens one interval from now.
func NewTicker(e Env, interval time.Duration, fn func()) *Ticker {
	t := &Ticker{env: e, interval: interval, fn: fn}
	t.tick = t.onTick
	t.arm()
	return t
}

func (t *Ticker) arm() { t.pending = t.env.After(t.interval, t.tick) }

func (t *Ticker) onTick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop halts the ticker. Safe to call from inside the tick callback.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.pending != nil {
		t.pending.Cancel()
	}
}

// Real is an Env running on the wall clock, for live TCP deployments. All
// callbacks are serialized through an internal mutex, honoring the Env
// contract. The epoch is the moment NewReal was called.
type Real struct {
	mu    sync.Mutex
	name  string
	rng   *rand.Rand
	epoch time.Time
}

// NewReal builds a wall-clock Env. The RNG is seeded explicitly so that even
// live runs can be made reproducible where latency permits.
func NewReal(name string, seed int64) *Real {
	return &Real{
		name:  name,
		rng:   rand.New(rand.NewSource(seed)),
		epoch: time.Now(),
	}
}

// Now implements Env.
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// Name implements Env.
func (r *Real) Name() string { return r.name }

// Rand implements Env. The caller must only use the source from inside
// callbacks (which are serialized); this mirrors the simulator's contract.
func (r *Real) Rand() *rand.Rand { return r.rng }

type realTimer struct {
	t *time.Timer
}

func (rt realTimer) Cancel() bool { return rt.t.Stop() }

// After implements Env. The callback acquires the node mutex, so it never
// overlaps other callbacks or Locked sections of the same node.
func (r *Real) After(d time.Duration, fn func()) Timer {
	t := time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		fn()
	})
	return realTimer{t}
}

// Locked runs fn under the same mutex that serializes callbacks. External
// goroutines must enter protocol code through Locked.
func (r *Real) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// Lock and Unlock are Locked without the closure and are the endpoint's
// alone: its transport handler enters the node for every inbound message, and
// a closure per delivery is an allocation per delivery. Everything else goes
// through Locked, which cannot be left unbalanced.
func (r *Real) Lock()   { r.mu.Lock() }
func (r *Real) Unlock() { r.mu.Unlock() }
