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
//     each other, so per-node protocol state needs no locking. Code outside
//     them enters the node under the Env's Locker (Real.Locked), and must not
//     wait there for a goroutine that enters it too, such as a TCP reader.
//     After and Event.Cancel are called only under this serialization.
//   - A canceled callback never runs; equal deadlines run in arm order.
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

// Env is the per-node runtime: virtual or wall clock, timers, randomness.
type Env interface {
	// Now returns the current time as an offset from the epoch.
	Now() time.Duration
	// After schedules fn to run d from now and returns its handle. fn runs
	// serialized with every other callback of this Env.
	After(d time.Duration, fn func()) Event
	// Rand returns this node's private random source.
	Rand() *rand.Rand
	// Name identifies the node for logs and metrics.
	Name() string
	// Locker returns the lock outside goroutines, such as a transport's
	// reader, hold to run protocol code; nil if there are none.
	Locker() sync.Locker
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
	pending Event
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
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop halts the ticker. Safe to call from inside the tick callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}

// Real is an Env running on the wall clock, for live TCP deployments: one OS
// timer pops its Queue, and callbacks and outside callers share one mutex.
// The epoch is the moment NewReal was called.
type Real struct {
	mu    sync.Mutex
	name  string
	rng   *rand.Rand
	epoch time.Time
	q     Queue
	timer *time.Timer // runs fire by the earliest deadline
}

// NewReal builds a wall-clock Env. The RNG is seeded explicitly so that even
// live runs can be made reproducible where latency permits.
func NewReal(name string, seed int64) *Real {
	r := &Real{name: name, rng: rand.New(rand.NewSource(seed)), epoch: time.Now()}
	r.timer = time.AfterFunc(time.Hour, r.fire)
	r.timer.Stop() // After sets it
	return r
}

// Now implements Env.
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// Name implements Env.
func (r *Real) Name() string { return r.name }

// Rand implements Env. The caller must only use the source from inside
// callbacks (which are serialized); this mirrors the simulator's contract.
func (r *Real) Rand() *rand.Rand { return r.rng }

// Locker implements Env: the mutex that serializes callbacks.
func (r *Real) Locker() sync.Locker { return &r.mu }

// After implements Env. It and Cancel run under the mutex fire pops under,
// so a canceled callback never runs.
func (r *Real) After(d time.Duration, fn func()) Event {
	at := r.Now() + max(d, 0)
	ev := r.q.Arm(at, fn, NoOwner)
	if next, _ := r.q.Next(); next == at { // else the timer is set for earlier
		r.timer.Reset(d)
	}
	return ev
}

// fire runs every due callback in (deadline, arm order) and sets the timer
// for the next one.
func (r *Real) fire() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		at, ok := r.q.Next()
		if !ok {
			return
		}
		if now := r.Now(); at > now {
			r.timer.Reset(at - now)
			return
		}
		_, fn, arg, _ := r.q.Pop()
		fn(arg)
	}
}

// Pending returns the number of callbacks armed, not run and not canceled.
func (r *Real) Pending() int { return r.q.Len() }

// Locked runs fn under the same mutex that serializes callbacks. External
// goroutines must enter protocol code through Locked.
func (r *Real) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}
