package env_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"jxta/internal/env"
	"jxta/internal/simnet"
)

// oneTimerEnv is an Env whose timers cost nothing: After remembers the
// callback and returns the zero, inert handle.
type oneTimerEnv struct{ armed func() }

func (e *oneTimerEnv) Now() time.Duration  { return 0 }
func (e *oneTimerEnv) Rand() *rand.Rand    { return nil }
func (e *oneTimerEnv) Name() string        { return "one-timer" }
func (e *oneTimerEnv) Locker() sync.Locker { return nil }
func (e *oneTimerEnv) After(_ time.Duration, fn func()) env.Event {
	e.armed = fn
	return env.Event{}
}

// TestTickerRearmAllocs: a Ticker re-arms one stored callback, so a tick
// costs what the Env charges for a timer and nothing on top. On the
// simulator that is nothing: NodeEnv.After returns its env.Event by value
// into a heap whose capacity has grown. Boxing that handle into an interface
// cost one object per tick, and a ticker that built a closure per arm one
// more.
func TestTickerRearmAllocs(t *testing.T) {
	free := &oneTimerEnv{}
	ticks := 0
	tk := env.NewTicker(free, time.Second, func() { ticks++ })
	if got := testing.AllocsPerRun(100, func() { free.armed() }); got != 0 {
		t.Errorf("a tick allocates %.0f objects in Ticker itself, want 0", got)
	}
	tk.Stop()

	sched := simnet.NewScheduler(1)
	tk = env.NewTicker(sched.NewEnv("n"), time.Second, func() { ticks++ })
	defer tk.Stop()
	sched.Run(10 * time.Second) // the event heap has grown
	before := ticks
	got := testing.AllocsPerRun(100, func() { sched.Run(sched.Now() + time.Second) })
	if ticks-before != 101 { // AllocsPerRun adds a warm-up call
		t.Fatalf("%d ticks over 101 virtual seconds", ticks-before)
	}
	if got != 0 {
		t.Errorf("a tick on simnet.NodeEnv allocates %.0f objects, want 0", got)
	}
}
