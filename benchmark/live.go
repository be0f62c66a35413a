package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/discovery"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/transport"
)

// The live workload runs the stack over real loopback TCP in one process:
// three rendezvous and four edges, of which two publish and two search.
// Traffic crosses the host's loopback interface, not a link.
const (
	liveRdvs       = 3
	liveClients    = 2    // closed-loop client goroutines per phase (= nproc)
	liveWarmup     = 8000 // untimed publish+lookup pairs per set-up: over half a second of it
	liveReadyLimit = 30 * time.Second
	// Nominal work per second of --seconds, fixed so that two commits
	// measure the same operations.
	livePublishesPerSecond = 1000
	liveLookupsPerSecond   = 5000
	livePublishSlice       = 500  // per client and slice
	liveLookupSlice        = 1000 // per client and slice
)

type livePeer struct {
	n  *node.Node
	e  *env.Real
	tr *transport.TCP
}

// locked runs fn under the peer's env lock, as every outside caller must.
func (p *livePeer) locked(fn func()) { p.e.Locked(fn) }

type liveOverlay struct {
	rdvs, pubs, searchers []*livePeer
	tapOn                 atomic.Bool
	tp                    *tap
	published             int
	buildTime, readyTime  time.Duration
}

func (lo *liveOverlay) peers() []*livePeer {
	all := append([]*livePeer(nil), lo.rdvs...)
	all = append(all, lo.pubs...)
	return append(all, lo.searchers...)
}

// tappedTransport lets a traced run observe outgoing messages; it exists
// only on traced runs, so untraced sends go straight to the TCP transport.
type tappedTransport struct {
	transport.Transport
	lo *liveOverlay
}

func (t tappedTransport) Send(to transport.Addr, m *message.Message) error {
	if t.lo.tapOn.Load() {
		t.lo.tp.observePair(t.Addr(), to, m)
	}
	return t.Transport.Send(to, m)
}

// buildLive listens, assembles and starts the seven peers. Peer identities
// derive from the seed through each env's RNG.
func buildLive(seed int64, tp *tap) (*liveOverlay, error) {
	lo := &liveOverlay{tp: tp}
	count := 0
	add := func(name string, role node.Role, seeds []peerview.Seed) (*livePeer, error) {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		count++
		p := &livePeer{e: env.NewReal(name, seed*64+int64(count)), tr: tr}
		var wire transport.Transport = tr
		if tp != nil {
			wire = tappedTransport{tr, lo}
		}
		p.locked(func() {
			p.n = node.New(p.e, wire, node.Config{
				Name:  name,
				Role:  role,
				Seeds: seeds,
				// A quarter-second peerview round, so that a view the boot
				// round left short fills without the paper's 30 s wait.
				Peerview: peerview.Config{Interval: 250 * time.Millisecond},
				// The zero discovery config leaves ScanCost at 0: that knob
				// is the simulator's model of SRDI scan time, and on a real
				// clock it would sleep 4 µs per indexed tuple on every query
				// on top of the real scan.
				Discovery: discovery.Config{},
			})
			p.n.Start()
		})
		return p, nil
	}
	seedOf := func(p *livePeer) []peerview.Seed { return []peerview.Seed{{ID: p.n.ID, Addr: p.tr.Addr()}} }
	for i := 0; i < liveRdvs; i++ {
		// Each rendezvous is seeded with all earlier ones, so the boot
		// round of probes fills every view. With a chain, whether it does
		// hangs on a random referral, and set-up time has two modes a
		// peerview interval apart.
		var seeds []peerview.Seed
		for _, earlier := range lo.rdvs {
			seeds = append(seeds, seedOf(earlier)...)
		}
		p, err := add(fmt.Sprintf("rdv%d", i), node.Rendezvous, seeds)
		if err != nil {
			lo.close()
			return nil, err
		}
		lo.rdvs = append(lo.rdvs, p)
	}
	for i := 0; i < liveClients; i++ {
		p, err := add(fmt.Sprintf("pub%d", i), node.Edge, seedOf(lo.rdvs[i%liveRdvs]))
		if err != nil {
			lo.close()
			return nil, err
		}
		lo.pubs = append(lo.pubs, p)
	}
	for i := 0; i < liveClients; i++ {
		p, err := add(fmt.Sprintf("search%d", i), node.Edge, seedOf(lo.rdvs[(i+2)%liveRdvs]))
		if err != nil {
			lo.close()
			return nil, err
		}
		lo.searchers = append(lo.searchers, p)
	}
	return lo, nil
}

// close stops every peer under its lock, then closes the transports outside
// it (a TCP reader delivers through the lock, so closing inside deadlocks)
// and all at once: TCP.Close waits for its readers, and the reader of a
// connection the transport did not register — the duplicate left when two
// peers dialed each other at the same moment — ends only when the other
// side closes too.
func (lo *liveOverlay) close() {
	for _, p := range lo.peers() {
		p.locked(func() { p.n.Stop() })
	}
	var wg sync.WaitGroup
	for _, p := range lo.peers() {
		wg.Add(1)
		go func(tr *transport.TCP) {
			defer wg.Done()
			tr.Close()
		}(p.tr)
	}
	wg.Wait()
}

// waitReady blocks until every edge holds a lease and every rendezvous
// sees both others.
func (lo *liveOverlay) waitReady() error {
	deadline := time.Now().Add(liveReadyLimit)
	for {
		ready := true
		for _, p := range lo.rdvs {
			p.locked(func() { ready = ready && p.n.PeerView.Size() == liveRdvs-1 })
		}
		for _, p := range append(append([]*livePeer(nil), lo.pubs...), lo.searchers...) {
			p.locked(func() {
				_, ok := p.n.Rendezvous.ConnectedRdv()
				ready = ready && ok
			})
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live overlay not ready after %v", liveReadyLimit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drained reports whether every published tuple has been indexed by its
// rendezvous and every replica sent has been indexed by its replica peer:
// then the indexes hold published + replicated tuples in total.
func (lo *liveOverlay) drained() bool {
	indexed, replicated := 0, uint64(0)
	for _, p := range lo.rdvs {
		p.locked(func() {
			indexed += p.n.Discovery.Index().Size()
			replicated += p.n.Discovery.Stats.TuplesReplicated
		})
	}
	return uint64(indexed) == uint64(lo.published)+replicated
}

func (lo *liveOverlay) waitDrained() error {
	deadline := time.Now().Add(liveReadyLimit)
	for !lo.drained() {
		if time.Now().After(deadline) {
			return fmt.Errorf("SRDI pushes not indexed after %v", liveReadyLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// totals sums every peer's metrics registry.
func (lo *liveOverlay) totals() map[string]float64 {
	sum := make(map[string]float64)
	for _, p := range lo.peers() {
		p.locked(func() {
			for k, v := range p.n.Metrics.Snapshot() {
				sum[k] += v
			}
		})
	}
	return sum
}

// rxMessages sums the messages every endpoint has received: the live
// counterpart of the simulator's event count.
func (lo *liveOverlay) rxMessages() uint64 {
	total := 0.0
	for k, v := range lo.totals() {
		if strings.HasPrefix(k, "jxta_endpoint_rx_messages_total") {
			total += v
		}
	}
	return uint64(total)
}

// liveSlice is one equal-work stretch of a phase: every client performs the
// same number of operations concurrently, then the slice ends.
type liveSlice struct {
	wall, cpu time.Duration
	traced    bool
}

type livePhase struct {
	name   string
	ops    int
	slices []liveSlice
	rx     uint64 // messages received by all endpoints during the phase
}

// robust is the phase's host time with bursts filtered out: every slice does
// the same work, so the phase costs its slice count times the median slice.
func (p *livePhase) robust() (wall, cpu time.Duration) {
	var ws, cs []float64
	for _, s := range p.slices {
		ws = append(ws, float64(s.wall))
		cs = append(cs, float64(s.cpu))
	}
	n := float64(len(p.slices))
	return time.Duration(n * median(ws)), time.Duration(n * median(cs))
}

func (p *livePhase) raw() (wall time.Duration) {
	for _, s := range p.slices {
		wall += s.wall
	}
	return wall
}

// publishSlice has each publisher publish per fresh advertisements, then
// waits until the rendezvous tier has indexed them all.
func (lo *liveOverlay) publishSlice(seed int64, first, per int, tr *tracer, parent int) error {
	var wg sync.WaitGroup
	for c, p := range lo.pubs {
		wg.Add(1)
		go func(c int, p *livePeer) {
			defer wg.Done()
			for k := first; k < first+per; k++ {
				nm := advName(seed, c, k)
				adv := &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, nm), Name: nm}
				t0 := time.Now()
				p.locked(func() { p.n.Discovery.Publish(adv, 0) })
				tr.op("publish", parent, c*1_000_000+k+1, t0, time.Since(t0))
			}
		}(c, p)
	}
	wg.Wait()
	lo.published += per * len(lo.pubs)
	return lo.waitDrained()
}

type liveLookups struct {
	mu        sync.Mutex
	attempted int
	ok        int
	timeouts  int
	refused   int
	wrong     int
	hops      int
	latMs     []float64
}

// lookupSlice has each searcher look up the given names closed loop: the
// next query leaves when the previous one was answered and the cache flushed.
func (lo *liveOverlay) lookupSlice(names [][]string, st *liveLookups, record bool, tr *tracer, parent int) {
	var wg sync.WaitGroup
	for c, p := range lo.searchers {
		wg.Add(1)
		go func(c int, p *livePeer) {
			defer wg.Done()
			type answer struct {
				seq  int
				ok   bool // false: timed out
				hit  bool
				hops int
			}
			// Buffered: a late duplicate response must never block the
			// reader goroutine that delivers it.
			answers := make(chan answer, 8)
			lat := make([]float64, 0, len(names[c]))
			okN, timeouts, refused, wrong, hops := 0, 0, 0, 0, 0
			for i, want := range names[c] {
				t0 := time.Now()
				var err error
				p.locked(func() {
					err = p.n.Discovery.Query("Resource", "Name", want,
						func(res discovery.Result) {
							select {
							case answers <- answer{i, true, carries(res.Advs, want), res.Hops}:
							default:
							}
						},
						func() {
							select {
							case answers <- answer{i, false, false, 0}:
							default:
							}
						})
				})
				if err != nil {
					refused++
					continue
				}
				var a answer
				for a = <-answers; a.seq != i; a = <-answers {
				}
				d := time.Since(t0)
				switch {
				case !a.ok:
					timeouts++
				case !a.hit:
					wrong++
				default:
					okN++
					hops += a.hops
					lat = append(lat, float64(d)/float64(time.Millisecond))
					tr.op("lookup", parent, c*1_000_000+i+1, t0, d)
				}
				p.locked(func() { p.n.Discovery.FlushCache() })
			}
			st.mu.Lock()
			st.attempted += len(names[c])
			st.ok += okN
			st.timeouts += timeouts
			st.refused += refused
			st.wrong += wrong
			st.hops += hops
			if record {
				st.latMs = append(st.latMs, lat...)
			}
			st.mu.Unlock()
		}(c, p)
	}
	wg.Wait()
}

// liveResult is everything one live run measured.
type liveResult struct {
	setups      []time.Duration // one per overlay set up
	setupProbes []time.Duration // bandwidth probes, one after every set-up
	probes      []time.Duration // bandwidth probes, one after every slice
	publish     livePhase
	lookup      livePhase
	lookups     liveLookups
	mem         memSample
	heapPerPeer float64
	coverage    float64
	conns       int
	hopsMean    float64
	build       time.Duration // listen + node.New + Start of the seven peers
	ready       time.Duration // until every lease and view is in place
	stop        time.Duration
	totals      map[string]float64 // node registries summed, end of body
}

// setupLive builds an overlay and brings it to the measured state: leased,
// views full, and warmed by untimed publish+lookup pairs.
func setupLive(seed int64, quick bool, tp *tap, rng *rand.Rand) (*liveOverlay, time.Duration, error) {
	t0 := time.Now()
	lo, err := buildLive(seed, tp)
	if err != nil {
		return nil, 0, err
	}
	lo.buildTime = time.Since(t0)
	if err := lo.waitReady(); err != nil {
		lo.close()
		return nil, 0, err
	}
	lo.readyTime = time.Since(t0) - lo.buildTime
	warm := liveWarmup / liveClients
	if quick {
		warm /= 10
	}
	// Warm-up names live in their own key space (negative client index).
	if err := lo.publishSlice(-seed-1, 0, warm, nil, 0); err != nil {
		lo.close()
		return nil, 0, err
	}
	names := make([][]string, liveClients)
	for c := range names {
		for i := 0; i < warm; i++ {
			names[c] = append(names[c], advName(-seed-1, rng.Intn(liveClients), rng.Intn(warm)))
		}
	}
	var st liveLookups
	lo.lookupSlice(names, &st, false, nil, 0)
	if st.ok != st.attempted {
		lo.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d lookups succeeded", st.ok, st.attempted)
	}
	return lo, time.Since(t0), nil
}

// runLive runs the live workload once. seconds scales the operation counts.
func runLive(seed int64, secs int, quick bool, tr *tracer, tp *tap) (*liveResult, error) {
	res := &liveResult{}
	rng := rand.New(rand.NewSource(seed))
	publishes, lookups := secs*livePublishesPerSecond, secs*liveLookupsPerSecond
	pubSlice, lookSlice := livePublishSlice, liveLookupSlice
	extraSetups := 6
	if quick {
		publishes, lookups, pubSlice, lookSlice, extraSetups = publishes/10, lookups/10, pubSlice/10, lookSlice/10, 0
	}

	// Set-up is measured several times: throwaway overlays first, then the
	// one the phases run on.
	for i := 0; i < extraSetups; i++ {
		lo, d, err := setupLive(seed, quick, nil, rng)
		if err != nil {
			return nil, err
		}
		res.setupProbes = append(res.setupProbes, probe())
		lo.close()
		res.setups = append(res.setups, d)
	}
	baseHeap := liveHeap()
	root := tr.begin("run", 0)
	sp := tr.begin("setup", root)
	lo, d, err := setupLive(seed, quick, tp, rng)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer func() {
		t0 := time.Now()
		lo.close()
		res.stop = time.Since(t0)
	}()
	res.setupProbes = append(res.setupProbes, probe())
	res.setups = append(res.setups, d)
	res.build, res.ready = lo.buildTime, lo.readyTime

	mem0, rx0 := readMem(), lo.rxMessages()

	// slice times one equal-work slice of a phase. On a traced run every
	// second slice has the tap and the spans on; the others are the
	// untraced reference for trace.overhead_share.
	slice := func(ph *livePhase, span, ops int, work func(st *tracer, sub int) error) error {
		traced := tr != nil && len(ph.slices)%2 == 1
		lo.tapOn.Store(traced)
		var st *tracer
		if traced {
			st = tr
		}
		sub := st.begin(ph.name+"-slice", span)
		w := startWatch()
		err := work(st, sub)
		wall, cpu := w.stop()
		st.end(sub)
		ph.slices = append(ph.slices, liveSlice{wall, cpu, traced})
		ph.ops += ops
		res.probes = append(res.probes, probe())
		return err
	}

	// Phase A: writes.
	res.publish.name = "publish"
	span := tr.begin("publish", root)
	for done := 0; done < publishes/liveClients; done += pubSlice {
		err := slice(&res.publish, span, pubSlice*liveClients, func(st *tracer, sub int) error {
			return lo.publishSlice(seed, done, pubSlice, st, sub)
		})
		if err != nil {
			return nil, err
		}
	}
	tr.end(span)
	rx1 := lo.rxMessages()
	res.publish.rx = rx1 - rx0

	// Phase B: reads, of names drawn from everything phase A published.
	res.lookup.name = "lookup"
	span = tr.begin("lookup", root)
	perPub := publishes / liveClients
	for done := 0; done < lookups/liveClients; done += lookSlice {
		names := make([][]string, liveClients)
		for c := range names {
			names[c] = make([]string, lookSlice)
			for i := range names[c] {
				names[c][i] = advName(seed, rng.Intn(liveClients), rng.Intn(perPub))
			}
		}
		_ = slice(&res.lookup, span, lookSlice*liveClients, func(st *tracer, sub int) error {
			lo.lookupSlice(names, &res.lookups, true, st, sub)
			return nil
		})
	}
	tr.end(span)
	lo.tapOn.Store(false)
	res.lookup.rx = lo.rxMessages() - rx1
	res.mem = readMem().sub(mem0)
	tr.end(root)

	// View coverage: each rendezvous must still see both others.
	held := 0
	for _, p := range lo.rdvs {
		p.locked(func() { held += p.n.PeerView.Size() })
	}
	res.coverage = float64(held) / float64(liveRdvs*(liveRdvs-1))
	heap := liveHeap()
	if heap <= baseHeap {
		return nil, fmt.Errorf("live heap after the body (%d B) is not above the heap before set-up (%d B): heap_bytes_per_peer cannot be measured", heap, baseHeap)
	}
	res.heapPerPeer = float64(heap-baseHeap) / float64(len(lo.peers()))
	if tp != nil {
		res.conns = tp.pairs()
		res.totals = lo.totals()
	}
	res.hopsMean = ratio(float64(res.lookups.hops), float64(res.lookups.ok))
	sort.Float64s(res.lookups.latMs)

	l := &res.lookups
	if l.ok != l.attempted {
		return nil, fmt.Errorf("live-tcp: %d of %d lookups returned the requested advertisement (%d timed out, %d refused, %d wrong): ok_share must be 1",
			l.ok, l.attempted, l.timeouts, l.refused, l.wrong)
	}
	return res, nil
}
