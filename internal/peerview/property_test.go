package peerview

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/simnet"
)

// The property test drives a peerview overlay through seeded randomized
// kill/rejoin/merge schedules and checks the membership state machine's
// invariants the whole way:
//
//  1. Views stay strictly ID-sorted with no duplicate members — under
//     probes, referrals, expiry, probe-timeout eviction and bulk merge
//     unions alike.
//  2. An evicted member never resurrects in a view while it is down,
//     except through a merge union (a merge deliberately imports another
//     peer's — possibly staler — view; the imported entry is then evicted
//     again by failure detection). A fresh join always readmits.
//  3. After the schedule ends and failure detection has had time to run,
//     no stopped peer remains in any running peer's view.

// propEvent is one recorded observation, in global emission order.
type propEvent struct {
	kind  int // 0 = membership event, 1 = stop, 2 = start, 3 = merge
	obs   int // observing peer (membership/merge events)
	ev    EventKind
	peer  int // subject peer index
	at    time.Duration
	order int
}

func TestPropertyRandomKillRejoinMerge(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runPropertySchedule(t, seed)
		})
	}
}

func runPropertySchedule(t *testing.T, seed int64) {
	const n = 10
	sched := simnet.NewScheduler(seed)
	cfg := Config{
		Interval:           30 * time.Second,
		EntryExpiry:        20 * time.Minute,
		HappySize:          4,
		ProbeTimeoutRounds: 3,
	}
	peers := newOverlay(t, sched, n, cfg)
	idx := make(map[ids.ID]int, n)
	for i, p := range peers {
		idx[p.id] = i
	}

	var log []propEvent
	order := 0
	record := func(e propEvent) {
		e.at = sched.Now()
		e.order = order
		order++
		log = append(log, e)
	}
	for i, p := range peers {
		i := i
		p.pv.SetListener(func(kind EventKind, peer ids.ID, _ time.Duration) {
			record(propEvent{kind: 0, obs: i, ev: kind, peer: idx[peer]})
		})
		p.pv.SetMergeListener(func(peer ids.ID) {
			record(propEvent{kind: 3, obs: i, peer: idx[peer]})
		})
	}
	startAll(peers)

	// Structural invariant sweep, once per simulated minute.
	running := make([]bool, n)
	for i := range running {
		running[i] = true
	}
	all := make([]ids.ID, n)
	for i, p := range peers {
		all[i] = p.id
	}
	checkStructure := func() {
		for i, p := range peers {
			if running[i] {
				checkIndexed(t, fmt.Sprintf("rdv%d", i), p.pv, all)
			}
		}
	}
	structTicker := func() {}
	structTicker = func() {
		checkStructure()
		sched.After(time.Minute, structTicker)
	}
	sched.After(time.Minute, structTicker)

	// Randomized schedule: one op every 5 minutes for 3 hours. The op RNG
	// is separate from the simulation RNG, seeded by the same value, so
	// the whole schedule is reproducible.
	rng := rand.New(rand.NewSource(seed))
	for step := 1; step <= 36; step++ {
		at := time.Duration(step) * 5 * time.Minute
		sched.After(at, func() {
			var up, down []int
			for i := range peers {
				if running[i] {
					up = append(up, i)
				} else {
					down = append(down, i)
				}
			}
			switch r := rng.Intn(10); {
			case r < 4 && len(up) > 2:
				v := up[rng.Intn(len(up))]
				record(propEvent{kind: 1, peer: v})
				running[v] = false
				peers[v].pv.Stop()
			case r < 8 && len(down) > 0:
				v := down[rng.Intn(len(down))]
				record(propEvent{kind: 2, peer: v})
				running[v] = true
				peers[v].pv.Reset()
				peers[v].pv.Start()
			case len(up) >= 2:
				a, b := up[rng.Intn(len(up))], up[rng.Intn(len(up))]
				if a != b {
					peers[a].pv.Merge(Seed{ID: peers[b].id, Addr: peers[b].tr.Addr()})
				}
			}
		})
	}
	// Schedule ends at 3h; settle well past the probe-timeout bound so
	// failure detection finishes sweeping every stale entry.
	sched.Run(4*time.Hour + 30*time.Minute)
	checkStructure()

	// Replay the log: resurrection analysis (invariant 2).
	runningNow := make([]bool, n)
	for i := range runningNow {
		runningNow[i] = true
	}
	evicted := make([]map[int]bool, n)
	for i := range evicted {
		evicted[i] = make(map[int]bool)
	}
	type candidate struct {
		obs, peer int
		at        time.Duration
		order     int
	}
	var suspects []candidate
	for _, e := range log {
		switch e.kind {
		case 1:
			runningNow[e.peer] = false
		case 2:
			runningNow[e.peer] = true
			for i := range evicted {
				delete(evicted[i], e.peer)
			}
		case 3:
			// Merge union at e.obs: adds in this same instant are legal.
			kept := suspects[:0]
			for _, s := range suspects {
				if !(s.obs == e.obs && s.at == e.at) {
					kept = append(kept, s)
				}
			}
			suspects = kept
		case 0:
			if e.ev == EventRemove {
				if !runningNow[e.peer] {
					evicted[e.obs][e.peer] = true
				}
				continue
			}
			if evicted[e.obs][e.peer] && !runningNow[e.peer] {
				suspects = append(suspects, candidate{obs: e.obs, peer: e.peer, at: e.at, order: e.order})
			}
			delete(evicted[e.obs], e.peer)
		}
	}
	for _, s := range suspects {
		t.Errorf("rdv%d resurrected stopped rdv%d at %v (order %d) without a fresh join or merge",
			s.obs, s.peer, s.at, s.order)
	}

	// Invariant 3: no stopped peer lingers in any running view.
	for i, p := range peers {
		if !running[i] {
			continue
		}
		for j := range peers {
			if !running[j] && p.pv.Contains(peers[j].id) {
				t.Errorf("rdv%d still sees stopped rdv%d after settle", i, j)
			}
		}
	}
}
