package simnet

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"jxta/internal/env"
)

// Engine is the scheduler surface deployments and experiments drive: the
// serial Scheduler and the window-barrier ShardedScheduler both implement
// it, so an overlay runs unchanged on either. Code that needs the concrete
// serial engine (tests poking Step) keeps using *Scheduler directly.
type Engine interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Steps returns the number of events executed so far.
	Steps() uint64
	// Pending returns the number of queued events (cross-shard queues
	// included).
	Pending() int
	// Run executes events up to and including virtual time until.
	Run(until time.Duration) uint64
	// Halt stops the current Run early (at the next window barrier on the
	// sharded engine; see ShardedScheduler.Halt).
	Halt()
	// After schedules a driver-level callback at now+d; on the sharded
	// engine it runs with every shard quiesced (see ShardedScheduler.After).
	After(d time.Duration, fn func()) env.Event
	// NewEnv creates a node environment (on shard 0 for the sharded
	// engine; placement-aware callers use NewEnvOn).
	NewEnv(name string) *NodeEnv
}

var (
	_ Engine = (*Scheduler)(nil)
	_ Engine = (*ShardedScheduler)(nil)
)

// xentry is one cross-shard event in a per-shard-pair exchange queue.
type xentry struct {
	at  time.Duration
	seq uint64 // per-(src,dst) FIFO sequence: deterministic merge tie-break
	fn  func(any)
	arg any
	src int32
}

// workerDone reports one shard's window execution back to the coordinator.
type workerDone struct {
	shard int
	steps uint64
}

// ParallelStats instruments the window barrier. TotalEvents over
// CriticalEvents is the workload's achievable speedup bound: each window's
// wall time is its slowest shard, so the critical path is the sum of
// per-window maxima regardless of core count.
type ParallelStats struct {
	// Windows counts shard execution windows (driver windows excluded).
	Windows uint64
	// BusyShardSum sums the per-window count of shards that had events.
	BusyShardSum uint64
	// MaxBusy is the largest number of concurrently busy shards seen.
	MaxBusy int
	// TotalEvents counts events executed inside shard windows.
	TotalEvents uint64
	// CriticalEvents sums each window's maximum per-shard event count —
	// the parallel critical path in events.
	CriticalEvents uint64
	// CrossShard counts events merged from the exchange queues at window
	// barriers.
	CrossShard uint64
}

// SpeedupBound returns TotalEvents/CriticalEvents — the speedup an ideal
// machine with one core per shard could reach on this workload, independent
// of the hardware the measurement ran on.
func (p ParallelStats) SpeedupBound() float64 {
	if p.CriticalEvents == 0 {
		return 1
	}
	return float64(p.TotalEvents) / float64(p.CriticalEvents)
}

// AvgBusy returns the mean number of busy shards per window (0 when no
// window ran).
func (p ParallelStats) AvgBusy() float64 {
	if p.Windows == 0 {
		return 0
	}
	return float64(p.BusyShardSum) / float64(p.Windows)
}

// ShardedScheduler is the conservative parallel engine: it partitions the
// simulation into per-core shards, each an independent serial Scheduler, and
// runs them concurrently inside lookahead windows no wider than the minimum
// cross-shard delivery latency. An event created during window [T, T+W) for
// another shard therefore always lands at ≥ T+W — the classic
// Chandy–Misra–Bryant argument — so shards never need to roll back.
//
// Cross-shard events travel through per-(src,dst) FIFO queues drained at the
// window barrier; the merge order is fixed by (timestamp, source shard,
// sequence), and every shard runs its window on a serial scheduler with its
// own derived seed, so a fixed-seed run is bit-reproducible at any
// GOMAXPROCS — the coordinator decides window boundaries from event content
// alone, never from thread timing.
type ShardedScheduler struct {
	shards    []*Scheduler
	driver    *Scheduler
	lookahead time.Duration
	now       time.Duration
	halted    atomic.Bool
	// xq holds the per-pair exchange queues, indexed src*len(shards)+dst;
	// xseq is the per-pair FIFO sequence counter, the merge's last
	// tie-break. During a window each queue and its counter are written
	// only by the source shard's goroutine, so neither needs a lock.
	xq   [][]xentry
	xseq []uint64
	// jobs/done are the parked worker channels; workers are spawned lazily
	// on the first multi-busy window of a Run and stopped when Run
	// returns, so an idle engine holds no goroutines.
	jobs []chan time.Duration
	done chan workerDone
	// merged and dispatch are scratch buffers reused across windows.
	merged   []xentry
	dispatch []int
	stat     ParallelStats
}

// NewSharded creates a sharded engine with the given number of shards and
// conservative lookahead. The lookahead must be positive when shards > 1:
// a zero window would admit cross-shard events into the running window,
// which is exactly the causality violation conservative PDES exists to
// prevent, so that configuration panics rather than silently corrupting
// determinism. Each shard's scheduler gets its own seed derived from the
// master seed, decorrelating per-shard RNG streams.
func NewSharded(seed int64, shards int, lookahead time.Duration) *ShardedScheduler {
	if shards < 1 {
		panic(fmt.Sprintf("simnet: NewSharded with %d shards", shards))
	}
	if shards > 1 && lookahead <= 0 {
		panic("simnet: sharded engine requires positive lookahead (zero-latency cross-shard links cannot be windowed)")
	}
	ss := &ShardedScheduler{
		shards:    make([]*Scheduler, shards),
		driver:    NewScheduler(deriveSeed(seed, int64(shards))),
		lookahead: lookahead,
		xq:        make([][]xentry, shards*shards),
		xseq:      make([]uint64, shards*shards),
	}
	for i := range ss.shards {
		ss.shards[i] = NewScheduler(deriveSeed(seed, int64(i)))
	}
	return ss
}

// deriveSeed decorrelates per-shard seeds from the master seed (SplitMix64
// finalizer, the same mix DeriveRand uses for per-node streams).
func deriveSeed(seed, index int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Shards returns the shard count.
func (ss *ShardedScheduler) Shards() int { return len(ss.shards) }

// Shard returns the i-th shard's serial scheduler. Transports use it to
// schedule shard-local deliveries and derive per-shard RNG streams.
func (ss *ShardedScheduler) Shard(i int) *Scheduler { return ss.shards[i] }

// ParallelStats returns a snapshot of the window/barrier instrumentation.
func (ss *ShardedScheduler) ParallelStats() ParallelStats { return ss.stat }

// Now implements Engine.
func (ss *ShardedScheduler) Now() time.Duration { return ss.now }

// Steps implements Engine: total events executed across shards and driver.
func (ss *ShardedScheduler) Steps() uint64 {
	t := ss.driver.Steps()
	for _, sh := range ss.shards {
		t += sh.Steps()
	}
	return t
}

// Pending implements Engine: live events across shards and driver plus
// cross-shard events still waiting in exchange queues.
func (ss *ShardedScheduler) Pending() int {
	p := ss.driver.Pending()
	for _, sh := range ss.shards {
		p += sh.Pending()
	}
	for _, q := range ss.xq {
		p += len(q)
	}
	return p
}

// Halt implements Engine. Unlike the serial engine's event-granular halt,
// the sharded engine stops at the next window barrier: shards mid-window
// finish the window (anything else would make the stop point depend on
// thread timing and break replay determinism).
func (ss *ShardedScheduler) Halt() { ss.halted.Store(true) }

// After implements Engine. Driver callbacks — churn injection, experiment
// sampling, query launchers — may touch nodes on any shard, so they run on a
// dedicated serial scheduler at their exact timestamp with every shard
// quiesced at that time: the window loop splits barriers at driver event
// times.
func (ss *ShardedScheduler) After(d time.Duration, fn func()) env.Event {
	return ss.driver.After(d, fn)
}

// NewEnv implements Engine, placing the env on shard 0. Placement-aware
// deployments use NewEnvOn so a node's timers run on the shard that owns
// its site.
func (ss *ShardedScheduler) NewEnv(name string) *NodeEnv { return ss.NewEnvOn(0, name) }

// NewEnvOn creates a node environment pinned to the given shard. All of the
// node's protocol callbacks execute inside that shard's windows, and its
// pending-callback ledger (Pending leak gates) lives on that shard's
// scheduler. Envs must be created in a fixed global order for replay
// determinism, as with the serial engine.
func (ss *ShardedScheduler) NewEnvOn(shard int, name string) *NodeEnv {
	return ss.shards[shard].NewEnv(name)
}

// XSchedule enqueues fn(arg) for the dst shard at absolute time at. It must
// be called from the src shard's execution context during a window, or from
// the driver/build context while shards are quiesced; entries are merged
// into dst's heap at the next barrier in (at, src, seq) order. The
// conservative contract requires at to be no earlier than the end of the
// current window — violations panic at merge time.
func (ss *ShardedScheduler) XSchedule(src, dst int, at time.Duration, fn func(any), arg any) {
	q := src*len(ss.shards) + dst
	ss.xq[q] = append(ss.xq[q], xentry{at: at, seq: ss.xseq[q], fn: fn, arg: arg, src: int32(src)})
	ss.xseq[q]++
}

// mergeCross drains every exchange queue into its destination shard's heap.
// Runs at barriers only (all shards quiesced). The per-destination batch is
// sorted by (timestamp, source shard, sequence) before insertion so the
// destination's heap order — and therefore replay — never depends on which
// goroutine filled which queue first.
func (ss *ShardedScheduler) mergeCross() {
	n := len(ss.shards)
	for dst := 0; dst < n; dst++ {
		batch := ss.merged[:0]
		for src := 0; src < n; src++ {
			q := src*n + dst
			if len(ss.xq[q]) == 0 {
				continue
			}
			batch = append(batch, ss.xq[q]...)
			for i := range ss.xq[q] {
				ss.xq[q][i] = xentry{} // release fn/arg references
			}
			ss.xq[q] = ss.xq[q][:0]
		}
		if len(batch) == 0 {
			ss.merged = batch
			continue
		}
		sortXEntries(batch)
		sh := ss.shards[dst]
		for i := range batch {
			e := &batch[i]
			if e.at < sh.now {
				panic(fmt.Sprintf("simnet: cross-shard event at %v violates lookahead window ending %v", e.at, sh.now))
			}
			sh.AtCall(e.at, e.fn, e.arg)
		}
		ss.stat.CrossShard += uint64(len(batch))
		for i := range batch {
			batch[i] = xentry{}
		}
		ss.merged = batch[:0]
	}
}

// sortXEntries orders a cross-shard batch by (at, src, seq) — the merge
// order of mergeCross.
func sortXEntries(batch []xentry) {
	sort.Slice(batch, func(i, j int) bool {
		a, b := &batch[i], &batch[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
}

// nextTime returns the earliest live event time across shards and driver.
func (ss *ShardedScheduler) nextTime() (time.Duration, bool) {
	best, ok := ss.driver.q.Next()
	for _, sh := range ss.shards {
		if t, h := sh.q.Next(); h && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// setTime aligns every clock — engine, driver, shards — at a barrier point.
// Only called while quiesced, with no live event earlier than t.
func (ss *ShardedScheduler) setTime(t time.Duration) {
	ss.now = t
	ss.driver.now = t
	for _, sh := range ss.shards {
		sh.now = t
	}
}

// Run implements Engine: execute events up to and including until. The loop
// is window-synchronous: pick the global minimum next-event time T, run
// every busy shard concurrently over [T, min(T+lookahead, next driver
// event, until+1ns)), exchange cross-shard events at the barrier, repeat.
// Empty stretches of virtual time are skipped in one step because T is
// always an actual event time, so sparse workloads pay per event, not per
// window of silence.
func (ss *ShardedScheduler) Run(until time.Duration) uint64 {
	start := ss.Steps()
	ss.halted.Store(false)
	defer ss.park()
	horizon := until + 1 // exclusive window bound admitting events at exactly until
	for !ss.halted.Load() {
		ss.mergeCross()
		t, ok := ss.nextTime()
		if !ok || t > until {
			break
		}
		if dt, ok := ss.driver.q.Next(); ok && dt == t {
			// Driver events run at their exact timestamp with every
			// shard quiesced at t (no shard has an event before t, so
			// advancing their clocks is safe). They may touch any node.
			ss.setTime(t)
			ss.driver.runWindow(t + 1)
			continue
		}
		end := t + ss.lookahead
		if len(ss.shards) == 1 {
			// One shard has no cross-shard causality to protect; run
			// straight to the horizon (windows would only add barriers).
			end = horizon
		}
		if dt, ok := ss.driver.q.Next(); ok && dt < end {
			end = dt
		}
		if end > horizon {
			end = horizon
		}
		ss.runShardWindow(end)
	}
	if !ss.halted.Load() {
		ss.setTime(until)
	}
	return ss.Steps() - start
}

// runShardWindow executes one conservative window [*, end) across all busy
// shards. The first busy shard runs inline on the coordinator — on a
// sparse workload where one shard is busy per window this makes the sharded
// engine's hot path identical in shape to the serial engine's — and the
// rest are dispatched to parked worker goroutines.
func (ss *ShardedScheduler) runShardWindow(end time.Duration) {
	inline := -1
	busy := 0
	toDispatch := ss.dispatch[:0]
	for i, sh := range ss.shards {
		if at, ok := sh.q.Next(); ok && at < end {
			busy++
			if inline < 0 {
				inline = i
			} else {
				toDispatch = append(toDispatch, i)
			}
		}
	}
	var maxSteps, sumSteps uint64
	if len(toDispatch) > 0 {
		ss.ensureWorkers()
		for _, i := range toDispatch {
			ss.jobs[i] <- end
		}
	}
	if inline >= 0 {
		steps := ss.shards[inline].runWindow(end)
		sumSteps += steps
		maxSteps = steps
	}
	for range toDispatch {
		d := <-ss.done
		sumSteps += d.steps
		if d.steps > maxSteps {
			maxSteps = d.steps
		}
	}
	ss.dispatch = toDispatch[:0]
	for _, sh := range ss.shards {
		if sh.now < end {
			sh.now = end
		}
	}
	ss.now = end
	ss.stat.Windows++
	ss.stat.BusyShardSum += uint64(busy)
	if busy > ss.stat.MaxBusy {
		ss.stat.MaxBusy = busy
	}
	ss.stat.TotalEvents += sumSteps
	ss.stat.CriticalEvents += maxSteps
}

// ensureWorkers spawns one parked goroutine per shard. Each worker owns its
// shard for the duration of a dispatched window; ownership passes back to
// the coordinator through the done channel, which is also the happens-before
// edge making post-window heap reads safe.
func (ss *ShardedScheduler) ensureWorkers() {
	if ss.jobs != nil {
		return
	}
	ss.jobs = make([]chan time.Duration, len(ss.shards))
	ss.done = make(chan workerDone, len(ss.shards))
	for i := range ss.shards {
		ch := make(chan time.Duration)
		ss.jobs[i] = ch
		go func(i int, ch chan time.Duration) {
			for end := range ch {
				ss.done <- workerDone{shard: i, steps: ss.shards[i].runWindow(end)}
			}
		}(i, ch)
	}
}

// park stops the worker goroutines at the end of a Run, so an idle or
// finished engine holds no goroutines (the leak-free teardown contract).
// The next Run respawns them on demand.
func (ss *ShardedScheduler) park() {
	if ss.jobs == nil {
		return
	}
	for _, ch := range ss.jobs {
		close(ch)
	}
	ss.jobs = nil
	ss.done = nil
}
