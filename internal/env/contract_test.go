package env_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"jxta/internal/env"
	"jxta/internal/israce"
	"jxta/internal/simnet"
)

// contractEnv is one Env implementation under the contract test. enter runs
// fn the way code outside the callbacks must enter the node; settle returns
// once no callback is pending, so every callback that will ever run has run.
type contractEnv struct {
	env    env.Env
	enter  func(fn func())
	settle func(t *testing.T)
}

func simContractEnv() contractEnv {
	s := simnet.NewScheduler(1)
	e := s.NewEnv("n")
	return contractEnv{
		env:   e,
		enter: func(fn func()) { fn() },
		settle: func(t *testing.T) {
			s.Run(s.Now() + time.Minute)
			if n := e.Pending(); n != 0 {
				t.Fatalf("%d callbacks still pending a virtual minute on", n)
			}
		},
	}
}

func realContractEnv() contractEnv {
	r := env.NewReal("n", 1)
	return contractEnv{
		env:   r,
		enter: r.Locked,
		settle: func(t *testing.T) {
			// Read under the lock: fire holds it while a popped callback runs.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				n := 0
				r.Locked(func() { n = r.Pending() })
				if n == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d callbacks still pending after 5 s", n)
				}
			}
		},
	}
}

// TestEnvContract holds the simulator's env and the wall-clock env to the
// one contract the env package states: equal deadlines run in arm order, a
// callback armed from a callback runs after it, and a canceled callback never
// runs, whoever cancels it and whatever the handle has been through; and a
// timer, once the queue has room for it, costs no heap object to arm.
func TestEnvContract(t *testing.T) {
	cases := []struct {
		name string
		// arm runs inside enter; the func it returns, if any, runs inside
		// enter again once everything armed has settled.
		arm  func(e env.Env, log func(any)) (after func())
		want string
		// allocs marks an allocation gate, which the race detector's own
		// allocations would break: skipped under -race.
		allocs bool
	}{
		{"equal deadlines run FIFO", func(e env.Env, log func(any)) func() {
			for i := 0; i < 5; i++ {
				e.After(time.Millisecond, func() { log(i) })
			}
			return nil
		}, "0 1 2 3 4", false},
		{"After(0) inside a callback runs after it returns", func(e env.Env, log func(any)) func() {
			e.After(0, func() {
				log("a")
				e.After(0, func() { log("c") })
				log("b")
			})
			return nil
		}, "a b c", false},
		{"cancel from inside a callback", func(e env.Env, log func(any)) func() {
			var later env.Event
			e.After(time.Millisecond, func() { log(later.Cancel()) })
			later = e.After(2*time.Millisecond, func() { log("canceled callback ran") })
			return nil
		}, "true", false},
		{"Cancel after fire returns false", func(e env.Env, log func(any)) func() {
			tm := e.After(0, func() { log("fired") })
			return func() { log(tm.Cancel()) }
		}, "fired false", false},
		{"a stale handle is inert", func(e env.Env, log func(any)) func() {
			stale := e.After(time.Millisecond, func() { log("canceled callback ran") })
			log(stale.Cancel())
			e.After(time.Millisecond, func() { log("fresh") }) // reuses the canceled slot
			return func() { log(stale.Cancel()) }
		}, "true fresh false", false},
		{"Ticker.Stop inside its own tick", func(e env.Env, log func(any)) func() {
			ticks := 0
			var tk *env.Ticker
			tk = env.NewTicker(e, time.Millisecond, func() {
				ticks++
				log(ticks)
				if ticks == 3 {
					tk.Stop()
				}
			})
			return nil
		}, "1 2 3", false},
		{"a warmed After then Cancel allocates nothing", func(e env.Env, log func(any)) func() {
			fn := func() { log("canceled callback ran") }
			log(testing.AllocsPerRun(100, func() { e.After(time.Second, fn).Cancel() }))
			return nil
		}, "0", true},
	}
	impls := []struct {
		name string
		make func() contractEnv
	}{{"simnet", simContractEnv}, {"real", realContractEnv}}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					if c.allocs && israce.Enabled {
						t.Skip("the race detector allocates on its own")
					}
					ce := impl.make()
					var got []string
					log := func(v any) { got = append(got, fmt.Sprint(v)) }
					var after func()
					ce.enter(func() { after = c.arm(ce.env, log) })
					ce.settle(t)
					if after != nil {
						ce.enter(after)
						ce.settle(t)
					}
					if s := strings.Join(got, " "); s != c.want {
						t.Fatalf("got %q, want %q", s, c.want)
					}
				})
			}
		})
	}
}
