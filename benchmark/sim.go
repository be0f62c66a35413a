package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/node"
)

// slice is one Sched.Run call: a fixed stretch of virtual time. Replays of
// one seed execute identical events in identical slices, so a slice's host
// time differs between replays by host noise alone.
type slice struct {
	wall, cpu time.Duration
	steps     uint64
}

// phase is a named run of slices between two driver actions.
type phase struct {
	name string
	// body phases make up wall_s, cpu_s, events_per_s and the allocation
	// metrics; the others are the discovery probe appended to workloads
	// whose body does no discovery.
	body   bool
	slices []slice
	probes []time.Duration // bandwidth probes taken between slices
	steps  uint64
	msgs   uint64
	virt   time.Duration
	mem    memSample
}

func (p *phase) wall() (w time.Duration) {
	for _, s := range p.slices {
		w += s.wall
	}
	return w
}

// lookupStats is the outcome of one closed-loop lookup phase.
type lookupStats struct {
	attempted int
	ok        int
	timeouts  int
	refused   int // Query returned an error (edge without a lease)
	wrong     int // a response that did not carry the requested name
	hops      int
	latMs     []float64 // successful lookups, virtual milliseconds
}

// simReplay is everything one replay of a simulated workload measured.
type simReplay struct {
	build, start, converge, stop time.Duration
	convergeProbes               []time.Duration // bandwidth probes taken during converge
	phases                       []*phase
	heapPerPeer                  float64
	coverage                     float64
	meanView                     float64
	pendingPeak                  int
	published                    int
	lookups                      map[string]*lookupStats // by phase name
	walks                        uint64
	hibernating, edges           int
	hibWakes, hibFreezes         uint64
	promotions, merges           int
	counts                       *layerCounts // traced replays only
}

// setup is the replay's set-up time. Building and starting peers is raw
// host time; the convergence wait is Sched.Run time like the body and is
// calibrated like it (without a wait there are no probes and no division).
func (r *simReplay) setup() time.Duration {
	return r.build + r.start + time.Duration(float64(r.converge)/slowdown(r.convergeProbes))
}

func (r *simReplay) phaseNamed(name string) *phase {
	for _, p := range r.phases {
		if p.name == name {
			return p
		}
	}
	return nil
}

// simWorkload is a simulated workload: an overlay spec, an optional
// convergence wait that belongs to set-up, and the driver of its phases.
type simWorkload struct {
	name string
	spec func(seed int64, quick bool) deploy.Spec
	// converge is virtual time run after StartAll as part of set-up.
	converge time.Duration
	// run drives the phases. It returns an error when an output is wrong.
	run func(r *simRun) error
	// setups is how many times a run sets the workload up (the replays
	// account for the first of them): enough that the median rests on over
	// a second of host time and thousands of peers built. setup_s is the
	// median over groups of setupBatch consecutive set-ups, each group
	// averaged: a set-up of milliseconds takes a third longer when a
	// collection falls into it, and a median of single set-ups would flip
	// between those two modes.
	setups, setupBatch int
	// nominalReplay is the host seconds one replay costs on the reference
	// box; --seconds buys seconds/nominalReplay replays (at least two).
	nominalReplay float64
	// shardedRegion names the longest stretch of pure Sched.Run ("converge"
	// or a phase), shardedHorizon the virtual time at which it ends: the
	// traced run repeats that stretch once on the two-shard engine.
	shardedRegion  string
	shardedHorizon time.Duration
}

// simRun is one replay in progress.
type simRun struct {
	o     *deploy.Overlay
	rng   *rand.Rand // input generation: names and lookup targets
	seed  int64
	quick bool
	rep   *simReplay
	tr    *tracer // nil on untraced replays
	root  int     // the replay's span, parent of every phase span
	// probe is false on the replays that stop after the body phases: an
	// untraced run's second and later ones, and the untraced comparison
	// replay of a traced run.
	probe    bool
	baseHeap uint64     // live heap before deploy.Build
	names    [][]string // names[p][k]: k-th advertisement of peer p
}

// runPhase runs virtual time in fixed slices until horizon has elapsed or,
// when done is given, until it reports true (horizon is then the limit
// after which the phase has failed).
func (r *simRun) runPhase(name string, body bool, step, horizon time.Duration, done func() bool) (*phase, error) {
	p := &phase{name: name, body: body}
	r.rep.phases = append(r.rep.phases, p)
	sched := r.o.Sched
	begin := sched.Now()
	steps0, msgs0 := sched.Steps(), r.o.Net.Stats().Messages
	span := r.tr.begin(name, r.root)
	mem0 := readMem()
	lastProbe := time.Now()
	for sched.Now()-begin < horizon {
		if done != nil && done() {
			break
		}
		before := sched.Steps()
		sub := r.tr.begin("Sched.Run", span)
		w := startWatch()
		sched.Run(sched.Now() + step)
		wall, cpu := w.stop()
		r.tr.end(sub)
		p.slices = append(p.slices, slice{wall, cpu, sched.Steps() - before})
		if pending := sched.Pending(); pending > r.rep.pendingPeak {
			r.rep.pendingPeak = pending
		}
		if time.Since(lastProbe) >= probeEvery {
			p.probes = append(p.probes, probe())
			lastProbe = time.Now()
		}
	}
	p.mem = readMem().sub(mem0)
	r.tr.end(span)
	p.steps = sched.Steps() - steps0
	p.msgs = r.o.Net.Stats().Messages - msgs0
	p.virt = sched.Now() - begin
	if done != nil && !done() {
		return p, fmt.Errorf("phase %s did not finish within %v of virtual time", name, horizon)
	}
	return p, nil
}

// advName is the name of peer p's k-th advertisement. The seed is part of
// it so that two seeds never share a key.
func advName(seed int64, p, k int) string { return fmt.Sprintf("s%d-p%d-k%d", seed, p, k) }

// publishPhase has every peer publish perPeer distinct Resource
// advertisements, one per spacing of virtual time, the peers staggered
// evenly inside that spacing (open loop: a publish has no reply to wait for).
func (r *simRun) publishPhase(name string, body bool, peers []*node.Node, perPeer int, spacing time.Duration) error {
	r.names = make([][]string, len(peers))
	for p := range peers {
		r.names[p] = make([]string, perPeer)
		for k := range r.names[p] {
			r.names[p][k] = advName(r.seed, p, k)
		}
	}
	for p, peer := range peers {
		var publish func(k int)
		publish = func(k int) {
			nm := r.names[p][k]
			peer.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, nm), Name: nm}, 0)
			r.rep.published++
			if k+1 < perPeer {
				peer.Env.After(spacing, func() { publish(k + 1) })
			}
		}
		offset := spacing * time.Duration(p) / time.Duration(len(peers))
		peer.Env.After(offset, func() { publish(0) })
	}
	// Two extra spacings let the last SRDI pushes and replications land.
	horizon := spacing * time.Duration(perPeer+2)
	_, err := r.runPhase(name, body, horizon/64, horizon, nil)
	if err == nil && r.rep.published != len(peers)*perPeer {
		err = fmt.Errorf("phase %s published %d of %d", name, r.rep.published, len(peers)*perPeer)
	}
	return err
}

// lookupPhase has every peer look up perPeer names published by other
// peers, closed loop: a peer issues its next query when the previous one
// was answered or timed out, after flushing its cache and waiting gap.
func (r *simRun) lookupPhase(name string, body bool, peers []*node.Node, perPeer int, gap, step, horizon time.Duration) error {
	st := &lookupStats{}
	r.rep.lookups[name] = st
	targets := make([][]string, len(peers))
	for p := range peers {
		targets[p] = make([]string, perPeer)
		for i := range targets[p] {
			owner := r.rng.Intn(len(peers) - 1)
			if owner >= p {
				owner++
			}
			targets[p][i] = r.names[owner][r.rng.Intn(len(r.names[owner]))]
		}
	}
	finished := 0
	var issue func(p, i int)
	issue = func(p, i int) {
		if i >= perPeer {
			finished++
			return
		}
		peer, want := peers[p], targets[p][i]
		advanced := false
		next := func() {
			if advanced {
				return
			}
			advanced = true
			peer.Discovery.FlushCache()
			if gap > 0 {
				peer.Env.After(gap, func() { issue(p, i+1) })
			} else {
				issue(p, i+1)
			}
		}
		st.attempted++
		err := peer.Discovery.Query("Resource", "Name", want,
			func(res discovery.Result) {
				if advanced {
					return // a second responder for the same query
				}
				if !carries(res.Advs, want) {
					st.wrong++
				} else {
					st.ok++
					st.hops += res.Hops
					st.latMs = append(st.latMs, float64(res.Elapsed)/float64(time.Millisecond))
				}
				next()
			},
			func() {
				if !advanced {
					st.timeouts++
				}
				next()
			})
		if err != nil {
			st.refused++
			advanced = true
			peer.Env.After(time.Second, func() { issue(p, i+1) })
		}
	}
	for p, peer := range peers {
		// Start the loops a microsecond apart: simultaneous starts would
		// be an artefact no deployment has.
		peer.Env.After(time.Duration(p)*time.Microsecond, func() { issue(p, 0) })
	}
	walks0 := r.totalWalks()
	_, err := r.runPhase(name, body, step, horizon, func() bool { return finished == len(peers) })
	r.rep.walks += r.totalWalks() - walks0
	sort.Float64s(st.latMs)
	if err != nil {
		return err
	}
	if st.wrong > 0 {
		return fmt.Errorf("phase %s: %d lookups returned an advertisement without the requested name", name, st.wrong)
	}
	return nil
}

// carries reports whether one of the advertisements is the Resource named
// want — the correctness check of every lookup.
func carries(advs []advertisement.Advertisement, want string) bool {
	for _, a := range advs {
		if res, ok := a.(*advertisement.Resource); ok && res.Name == want {
			return true
		}
	}
	return false
}

func (r *simRun) totalWalks() (walks uint64) {
	for _, n := range r.o.Nodes() {
		walks += n.Discovery.Stats.WalksStarted
	}
	return walks
}

// liveTier returns the peers currently serving as rendezvous.
func liveTier(o *deploy.Overlay) (tier []*node.Node) {
	for _, n := range o.Nodes() {
		if n.Started() && n.IsRendezvous() {
			tier = append(tier, n)
		}
	}
	return tier
}

// sampleViews records view_coverage: over the live rendezvous tier, the
// share of the other live members the mean peerview holds. Dead entries a
// view still carries do not count.
func (r *simRun) sampleViews() {
	tier := liveTier(r.o)
	live := make(map[ids.ID]bool, len(tier))
	for _, n := range tier {
		live[n.ID] = true
	}
	size, held := 0, 0
	for _, n := range tier {
		size += n.PeerView.Size()
		for _, id := range n.PeerView.View() {
			if live[id] && id != n.ID {
				held++
			}
		}
	}
	r.rep.meanView = float64(size) / float64(len(tier))
	r.rep.coverage = 1
	if len(tier) > 1 {
		r.rep.coverage = float64(held) / float64(len(tier)*(len(tier)-1))
	}
}

// convergeSlices is how many stretches the convergence wait is run in, with
// a bandwidth probe after each.
const convergeSlices = 16

// setUp does everything setup_s covers: it builds a fresh overlay from the
// seed, starts it and runs the workload's convergence wait.
func setUp(wl *simWorkload, seed int64, quick bool, tr *tracer, tp *tap, root int) (*simRun, error) {
	rep := &simReplay{lookups: make(map[string]*lookupStats)}
	baseHeap := liveHeap()
	sp := tr.begin("deploy.Build", root)
	t0 := time.Now()
	o, err := deploy.Build(wl.spec(seed, quick))
	rep.build = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	o.OnPromotion = func(*node.Node) { rep.promotions++ }
	o.OnMerge = func(*node.Node, ids.ID) { rep.merges++ }
	if tp != nil {
		o.Net.OnSend = tp.onSend
	}
	sp = tr.begin("StartAll", root)
	t0 = time.Now()
	o.StartAll()
	rep.start = time.Since(t0)
	tr.end(sp)

	if wl.converge > 0 {
		sp = tr.begin("converge", root)
		for i := 1; i <= convergeSlices; i++ {
			t0 = time.Now()
			o.Sched.Run(wl.converge * time.Duration(i) / convergeSlices)
			rep.converge += time.Since(t0)
			rep.convergeProbes = append(rep.convergeProbes, probe())
		}
		tr.end(sp)
	}
	return &simRun{o: o, root: root, rng: rand.New(rand.NewSource(seed)), seed: seed, quick: quick, rep: rep, tr: tr, baseHeap: baseHeap}, nil
}

// replaySim sets the workload up and runs it once.
func replaySim(wl *simWorkload, seed int64, quick, probe bool, tr *tracer, tp *tap) (*simReplay, error) {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	run, err := setUp(wl, seed, quick, tr, tp, root)
	if err != nil {
		return nil, err
	}
	run.probe = probe
	rep := run.rep
	if err := wl.run(run); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if tp != nil {
		rep.counts = collectCounts(run.o)
	}
	sp := tr.begin("StopAll", root)
	t0 := time.Now()
	run.o.StopAll()
	rep.stop = time.Since(t0)
	tr.end(sp)
	return rep, nil
}

// endBody closes the body: it samples the peerviews, the hibernation state
// and the live heap. Workloads call it after their last body phase.
func (r *simRun) endBody() error {
	r.sampleViews()
	r.rep.edges = len(r.o.Edges)
	for _, e := range r.o.Edges {
		if e.Hibernating() {
			r.rep.hibernating++
		}
		w, f := e.HibernationStats()
		r.rep.hibWakes += w
		r.rep.hibFreezes += f
	}
	// The live heap is the whole process's: a run that shares its process
	// with other allocating work can see it shrink, and then there is no
	// number to report.
	heap := liveHeap()
	if heap <= r.baseHeap {
		return fmt.Errorf("live heap after the body (%d B) is not above the heap before build (%d B): heap_bytes_per_peer cannot be measured", heap, r.baseHeap)
	}
	r.rep.heapPerPeer = float64(heap-r.baseHeap) / float64(len(r.o.Nodes()))
	return nil
}
