package experiments

import (
	"reflect"
	"testing"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/rendezvous"
	"jxta/internal/socket"
	"jxta/internal/topology"
)

// Edge hibernation (PR 9) promises two things at once: a steady-state edge
// costs a fraction of its live heap, and nothing observable changes — the
// event trajectory, wire traffic and every metric replay byte-identical
// with hibernation on or off. The first block of tests proves the second
// promise the strongest way available: every golden experiment re-runs with
// hibernation forced on every overlay and must match the SAME golden
// constants, which were captured before hibernation existed. The rest cover
// the lifecycle seams (kill/restart/promote while frozen, dormant edges
// woken by tier death) and the memory claims (RNG register dropped, no map
// held while idle, steady-state occupancy high).

// forceHibernation arms the deploy-level hook for one test: every overlay
// built while it is set hibernates its edges regardless of spec.
func forceHibernation(t *testing.T) {
	t.Helper()
	deploy.ForceHibernate = true
	t.Cleanup(func() { deploy.ForceHibernate = false })
}

func TestHibernateGoldenPeerviewByteIdentical(t *testing.T) {
	forceHibernation(t)
	res, err := RunPeerview(PeerviewSpec{
		R: 24, Topology: topology.Chain,
		Duration: 20 * time.Minute, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peerviewFingerprint(res); got != goldenPeerview {
		t.Errorf("hibernating peerview run diverged from golden\n got:  %s\n want: %s", got, goldenPeerview)
	}
}

func TestHibernateGoldenDiscoveryByteIdentical(t *testing.T) {
	forceHibernation(t)
	res, err := RunDiscovery(DiscoverySpec{
		R: 8, Queries: 12, Seed: 42, Converge: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := discoveryFingerprint(res); got != goldenDiscovery {
		t.Errorf("hibernating discovery run diverged from golden\n got:  %s\n want: %s", got, goldenDiscovery)
	}
}

func TestHibernateGoldenBandwidthByteIdentical(t *testing.T) {
	forceHibernation(t)
	t.Setenv(socket.WindowEnvVar, "")
	res, err := RunBandwidth(BandwidthSpec{
		R:              3,
		Sizes:          []int{4 << 10, 64 << 10},
		VolumePerPoint: 512 << 10,
		RTTSamples:     2,
		LossRate:       0.01,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := bandwidthFingerprint(res); got != goldenBandwidth {
		t.Errorf("hibernating bandwidth run diverged from golden\n got:  %s\n want: %s", got, goldenBandwidth)
	}
}

func TestHibernateGoldenChurnRecoveryByteIdentical(t *testing.T) {
	forceHibernation(t)
	t.Setenv(socket.WindowEnvVar, "")
	res, err := RunChurnRecovery(RecoverySpec{
		R: 12, Kills: 4, Queries: 8, RejoinEvery: time.Minute, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := recoveryFingerprint(res); got != goldenRecovery {
		t.Errorf("hibernating churn-recovery run diverged from golden\n got:  %s\n want: %s", got, goldenRecovery)
	}
}

// TestHibernateGoldenVolatilityByteIdentical replays the full self-healing
// sweep — kills, missed-renewal detection, failover, successor election and
// in-place promotion — with every edge hibernating. Edges here get killed
// while frozen, restarted while frozen and promoted out of deep sleep, and
// the trajectory still may not move a byte.
func TestHibernateGoldenVolatilityByteIdentical(t *testing.T) {
	forceHibernation(t)
	t.Setenv(socket.WindowEnvVar, "")
	spec := VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery: []time.Duration{90 * time.Second},
		Kills:     4, Queries: 40, Seed: 42,
	}
	attrition, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.RejoinAfter = 3 * time.Minute
	churn, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := volatilityFingerprint(attrition) + " || " + volatilityFingerprint(churn)
	if got != goldenVolatility {
		t.Errorf("hibernating volatility run diverged from golden\n got:  %s\n want: %s", got, goldenVolatility)
	}
}

// TestHibernateGoldenIslandMergeByteIdentical replays the island-merge
// golden with hibernation forced: tier probes and merge handshakes land on
// dormant promoted-successor islands and their frozen clients, every one a
// wake from hibernation, and the merge outcome is still bit-exact.
func TestHibernateGoldenIslandMergeByteIdentical(t *testing.T) {
	forceHibernation(t)
	t.Setenv(socket.WindowEnvVar, "")
	res, err := RunVolatility(VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery: []time.Duration{90 * time.Second},
		Kills:     4, Queries: 40, Seed: 42,
		IslandMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Merge == nil || !pt.Merge.Converged || !pt.Reconverged {
		t.Fatalf("hibernating island merge did not converge: %+v", pt)
	}
	if got := islandMergeFingerprint(res); got != goldenIslandMerge {
		t.Errorf("hibernating island-merge run diverged from golden\n got:  %s\n want: %s", got, goldenIslandMerge)
	}
}

// TestHibernateGoldenScaleByteIdentical replays both sharded-engine goldens
// (pipelined default and barrier opt-out) with hibernation forced, and
// checks the occupancy instrumentation reports real freeze/wake cycling.
func TestHibernateGoldenScaleByteIdentical(t *testing.T) {
	forceHibernation(t)
	res, err := RunScale(goldenScaleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := scaleFingerprint(res); got != goldenScale {
		t.Errorf("hibernating sharded run diverged from golden\n got:  %s\n want: %s", got, goldenScale)
	}
	if res.Hibernating == 0 || res.HibFreezes == 0 || res.HibWakes == 0 {
		t.Errorf("forced hibernation left no trace: occupancy=%d wakes=%d freezes=%d",
			res.Hibernating, res.HibWakes, res.HibFreezes)
	}

	spec := goldenScaleSpec()
	spec.Barrier = true
	res, err = RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaleFingerprint(res); got != goldenScaleBarrier {
		t.Errorf("hibernating barrier run diverged from golden\n got:  %s\n want: %s", got, goldenScaleBarrier)
	}
}

// TestHibernateReplayTwiceDeterministic runs the same hibernating spec
// twice in one process: the pooled RNG registers may not leak one run's
// state into the next.
func TestHibernateReplayTwiceDeterministic(t *testing.T) {
	spec := ScaleSpec{R: 8, Edges: 24, Shards: 2, Hibernate: true,
		Duration: 8 * time.Minute, Lease: time.Minute, Seed: 99}
	a, err := RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := scaleFingerprint(a), scaleFingerprint(b)
	if fa != fb {
		t.Errorf("hibernating replay diverged\n first:  %s\n second: %s", fa, fb)
	}
	if a.Hibernating != b.Hibernating || a.HibWakes != b.HibWakes || a.HibFreezes != b.HibFreezes {
		t.Errorf("hibernation occupancy diverged between replays: %d/%d/%d vs %d/%d/%d",
			a.Hibernating, a.HibWakes, a.HibFreezes, b.Hibernating, b.HibWakes, b.HibFreezes)
	}

	// The same spec with hibernation disabled is the third witness: the
	// trajectory may not depend on the gate at all.
	spec.Hibernate = false
	c, err := RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fc := scaleFingerprint(c); fc != fa {
		t.Errorf("hibernation changed the trajectory\n on:  %s\n off: %s", fa, fc)
	}
	if c.Hibernating != 0 || c.HibFreezes != 0 {
		t.Errorf("run without Hibernate still hibernated: occupancy=%d freezes=%d", c.Hibernating, c.HibFreezes)
	}
}

// buildHibernatingOverlay deploys a small self-healing overlay with
// hibernation on and runs it to lease + freeze steady state.
func buildHibernatingOverlay(t *testing.T, seed int64) *deploy.Overlay {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:      seed,
		NumRdv:    2,
		Hibernate: true,
		Topology:  topology.Chain,
		Lease: rendezvous.Config{
			LeaseDuration:    4 * time.Minute,
			ResponseTimeout:  10 * time.Second,
			FailoverAttempts: 4,
			SelfHeal:         true,
			IslandMerge:      true,
		},
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 3}, {AttachTo: 1, Count: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)
	return o
}

// mapFieldsNil fails the test for every map-typed field of the struct rv
// that is not nil. Reflection reads unexported fields, so the services
// need no test hook, and a map added to one of them later is covered
// without touching this file.
func mapFieldsNil(t *testing.T, edge string, rv reflect.Value) {
	t.Helper()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Map && !f.IsNil() {
			t.Errorf("edge %s hibernates but %s.%s is allocated (len %d)",
				edge, rv.Type(), rv.Type().Field(i).Name, f.Len())
		}
	}
}

// TestHibernateFreezeReleasesState checks the memory contract directly. A
// steady-state edge has dropped its RNG register, the one thing that still
// freezes, and the endpoint (with its route table and the transport's FIFO
// clamp), the six services above it and the rumor store hold no map at all:
// their idle state is their zero state, with nothing to pack. A rendezvous
// peer never freezes.
func TestHibernateFreezeReleasesState(t *testing.T) {
	o := buildHibernatingOverlay(t, 5)
	defer o.StopAll()
	frozen := 0
	for _, e := range o.Edges {
		name := e.Config.Name
		if _, ok := e.Rendezvous.ConnectedRdv(); !ok {
			t.Fatalf("edge %s not leased at steady state", name)
		}
		if !e.Hibernating() {
			continue
		}
		frozen++
		if rr, ok := e.Env.(interface{ RandResident() bool }); ok && rr.RandResident() {
			t.Errorf("edge %s hibernates but its RNG register is resident", name)
		}
		ep := reflect.ValueOf(e.Endpoint).Elem()
		mapFieldsNil(t, name, ep)
		mapFieldsNil(t, name, ep.FieldByName("routes"))
		mapFieldsNil(t, name, reflect.ValueOf(e.Endpoint.Transport()).Elem().FieldByName("fifo"))
		rdv := reflect.ValueOf(e.Rendezvous).Elem()
		mapFieldsNil(t, name, rdv)
		mapFieldsNil(t, name, rdv.FieldByName("rumors").Elem())
		for _, svc := range []any{e.Cache, e.Resolver, e.Discovery, e.Pipe, e.Socket} {
			mapFieldsNil(t, name, reflect.ValueOf(svc).Elem())
		}
		w, f := e.HibernationStats()
		if f == 0 || w >= f {
			t.Errorf("edge %s has implausible hibernation stats: wakes=%d freezes=%d", e.Config.Name, w, f)
		}
	}
	if frozen == 0 {
		t.Fatal("no edge hibernated at steady state")
	}
	for _, r := range o.Rdvs {
		if r.Hibernating() {
			t.Errorf("rendezvous %s hibernated", r.Config.Name)
		}
	}
}

// TestHibernatingEdgeReportsItsRoutes: a scrape must not depend on whether
// the peer happens to be idle. The jxta_endpoint_routes gauge of a leased,
// hibernating edge with a registry of its own counts the routes it holds,
// its rendezvous among them. (While the endpoint packed its tables away the
// gauge read the released map and reported 0.) The gauge is read before
// KnownPeers so that nothing touches the endpoint first.
func TestHibernatingEdgeReportsItsRoutes(t *testing.T) {
	o := buildHibernatingOverlay(t, 5)
	defer o.StopAll()
	checked := 0
	for _, e := range o.Edges {
		if _, leased := e.Rendezvous.ConnectedRdv(); !leased || !e.Hibernating() {
			continue
		}
		checked++
		gauge := e.Metrics.Snapshot()["jxta_endpoint_routes"]
		if known := len(e.Endpoint.KnownPeers()); gauge < 1 || gauge != float64(known) {
			t.Errorf("edge %s: jxta_endpoint_routes = %v while it routes to %d peers", e.Config.Name, gauge, known)
		}
	}
	if checked == 0 {
		t.Fatal("no leased edge hibernated at steady state")
	}
}

// TestHibernateKillRestartPromote drives the lifecycle verbs against frozen
// edges: kill a hibernated edge, restart it (it must re-lease and freeze
// again), then promote another straight out of hibernation (it must come up
// as a live rendezvous and never freeze after).
func TestHibernateKillRestartPromote(t *testing.T) {
	o := buildHibernatingOverlay(t, 6)
	defer o.StopAll()
	victim := -1
	for i, e := range o.Edges {
		if e.Hibernating() {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no hibernated edge to kill")
	}
	e := o.Edges[victim]
	o.KillEdge(victim)
	// A dead node is maximally quiescent: Kill settles on the way out, so
	// the corpse freezes too — killed populations cost what idle ones do.
	if !e.Hibernating() {
		t.Fatal("killed edge did not freeze-dry")
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	o.RestartEdge(victim)
	o.Sched.Run(o.Sched.Now() + 8*time.Minute)
	if _, ok := e.Rendezvous.ConnectedRdv(); !ok {
		t.Fatal("restarted edge did not re-lease")
	}
	if !e.Hibernating() {
		t.Fatal("restarted edge did not hibernate again at steady state")
	}

	pi := -1
	for i, p := range o.Edges {
		if i != victim && p.Hibernating() {
			pi = i
			break
		}
	}
	if pi < 0 {
		t.Fatal("no hibernated edge to promote")
	}
	p := o.Edges[pi]
	p.PromoteToRendezvous()
	if !p.IsRendezvous() {
		t.Fatal("promotion out of hibernation failed")
	}
	if p.Hibernating() {
		t.Fatal("promoted rendezvous still reports hibernating")
	}
	o.Sched.Run(o.Sched.Now() + 8*time.Minute)
	if p.Hibernating() {
		t.Fatal("rendezvous froze after promotion")
	}
	w, _ := p.HibernationStats()
	if w == 0 {
		t.Fatal("promotion did not register as a wake")
	}
}

// TestHibernateDormantEdgesWakeOnTierDeath kills the entire rendezvous tier
// under a population of deeply hibernated edges: every edge must wake on
// its own missed-renewal timer, run failover, and heal the overlay through
// promotion — proving the freeze never disables the self-healing machinery
// or loses the alternates it needs.
func TestHibernateDormantEdgesWakeOnTierDeath(t *testing.T) {
	o := buildHibernatingOverlay(t, 7)
	defer o.StopAll()
	for _, e := range o.Edges {
		if !e.Hibernating() {
			t.Fatalf("edge %s not hibernating before tier death", e.Config.Name)
		}
	}
	o.KillRdv(0)
	o.KillRdv(1)
	o.Sched.Run(o.Sched.Now() + 30*time.Minute)
	live := 0
	for _, e := range o.Edges {
		if e.IsRendezvous() {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no hibernated edge promoted after tier death")
	}
	leased := 0
	for _, e := range o.Edges {
		if e.IsRendezvous() {
			continue
		}
		if _, ok := e.Rendezvous.ConnectedRdv(); ok {
			leased++
		}
		w, _ := e.HibernationStats()
		if w == 0 {
			t.Errorf("edge %s slept through the tier death", e.Config.Name)
		}
	}
	if leased == 0 {
		t.Fatal("no surviving edge re-leased onto the promoted tier")
	}
}
