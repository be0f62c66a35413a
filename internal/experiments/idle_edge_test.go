package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// An idle edge is small by construction: deploy.AddEdge releases its RNG
// register once, right after the peer ID was drawn, and nothing it is made
// of allocates a map before it is written. There is no mode to switch on, so
// every overlay in this package runs with its edges' registers released —
// the plain goldens are the proof that the released stream changes no
// trajectory (simnet.TestReleasedStreamContinues is the property behind
// them). The tests here hold the memory contract and the lifecycle seams: a
// released edge that is killed, restarted or promoted behaves as one that
// never let go of its register.

// buildIdleOverlay deploys a small self-healing overlay and runs it to the
// lease steady state. HappySize is 2 so that a promoted edge's view of the
// two rendezvous is a happy one: only a happy peerview tick draws from the
// RNG.
func buildIdleOverlay(t *testing.T, seed int64) *deploy.Overlay {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		NumRdv:   2,
		Topology: topology.Chain,
		Peerview: peerview.Config{HappySize: 2},
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

// randResident reports whether the node's env holds its RNG register.
func randResident(n *node.Node) bool {
	return n.Env.(interface{ RandResident() bool }).RandResident()
}

// idleLeased reports whether e is an edge holding a lease with nothing in
// flight.
func idleLeased(e *node.Node) bool {
	_, leased := e.Rendezvous.ConnectedRdv()
	return leased && e.Hibernating()
}

// mapFieldsNil fails the test for every map-typed field of the struct rv
// that is not nil. Reflection reads unexported fields, so the services
// need no test hook, and a map added to one of them later is covered
// without touching this file.
func mapFieldsNil(t *testing.T, edge string, rv reflect.Value) {
	t.Helper()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Map && !f.IsNil() {
			t.Errorf("edge %s is idle but %s.%s is allocated (len %d)",
				edge, rv.Type(), rv.Type().Field(i).Name, f.Len())
		}
	}
}

// TestIdleEdgeHoldsNothing checks the memory contract directly. Every edge
// of a deployed overlay at the lease steady state holds no RNG register, and
// its endpoint (with the route table and the transport's FIFO clamp), the
// four services above it — the rendezvous service read through its shared
// core and its lease client, its server half nil — and the rumor store, if
// one was built, hold no map at all: their idle state is their zero state.
// A rendezvous keeps its register.
func TestIdleEdgeHoldsNothing(t *testing.T) {
	o := buildIdleOverlay(t, 5)
	defer o.StopAll()
	for _, e := range o.Edges {
		name := e.Config.Name
		if !idleLeased(e) {
			t.Fatalf("edge %s not leased and idle at steady state", name)
		}
		if randResident(e) {
			t.Errorf("edge %s is idle but its RNG register is resident", name)
		}
		ep := reflect.ValueOf(e.Endpoint).Elem()
		mapFieldsNil(t, name, ep)
		mapFieldsNil(t, name, ep.FieldByName("routes"))
		mapFieldsNil(t, name, reflect.ValueOf(e.Endpoint.Transport()).Elem().FieldByName("fifo"))
		rdv := reflect.ValueOf(e.Rendezvous).Elem()
		if !rdv.FieldByName("srv").IsNil() {
			t.Errorf("edge %s holds the rendezvous' server half", name)
		}
		shared := rdv.FieldByName("core")
		mapFieldsNil(t, name, shared)
		mapFieldsNil(t, name, rdv.FieldByName("cli"))
		if rumors := shared.FieldByName("rumors"); !rumors.IsNil() { // a nil store holds no map
			mapFieldsNil(t, name, rumors.Elem())
		}
		for _, svc := range []any{e.Cache, e.Resolver, e.Discovery} {
			mapFieldsNil(t, name, reflect.ValueOf(svc).Elem())
		}
	}
	for _, r := range o.Rdvs {
		if r.Hibernating() {
			t.Errorf("rendezvous %s reports itself an idle edge", r.Config.Name)
		}
	}
}

// TestNoRumorStoreWithoutIslandMerge: only the island-merge gossip writes
// the rumor store, so in an overlay without IslandMerge no node builds one —
// at the steady state and again after every node was restarted. The set of
// referral probes in flight, written while the tier converged, is gone after
// one idle interval.
func TestNoRumorStoreWithoutIslandMerge(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed: 42, NumRdv: 4, Topology: topology.Chain,
		Lease: rendezvous.Config{SelfHeal: true},
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 3}, {AttachTo: 3, Count: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.StopAll()
	nodes := append(append([]*node.Node(nil), o.Rdvs...), o.Edges...)
	field := func(v any, name string) reflect.Value { return reflect.ValueOf(v).Elem().FieldByName(name) }
	probing := false
	var watch func()
	watch = func() {
		for _, r := range o.Rdvs {
			probing = probing || !field(r.PeerView, "probed").IsNil()
		}
		if o.Sched.Now() < time.Minute {
			o.Sched.After(time.Second, watch)
		}
	}
	o.Sched.After(0, watch)
	check := func(when string) {
		t.Helper()
		for _, n := range nodes {
			if !field(n.Rendezvous, "core").FieldByName("rumors").IsNil() {
				t.Errorf("%s: %s holds a rumor store", when, n.Config.Name)
			}
		}
		for _, r := range o.Rdvs {
			if r.PeerView.Size() != len(o.Rdvs)-1 {
				t.Fatalf("%s: %s sees %d of %d rendezvous", when, r.Config.Name, r.PeerView.Size(), len(o.Rdvs)-1)
			}
			if !field(r.PeerView, "probed").IsNil() {
				t.Errorf("%s: %s's peerview holds its probed map", when, r.Config.Name)
			}
		}
	}
	interval := peerview.DefaultConfig().Interval
	o.StartAll()
	o.Sched.Run(10*time.Minute + interval)
	if !probing {
		t.Fatal("no rendezvous probed a referral while the tier converged; the test proves nothing")
	}
	check("at the steady state")
	for _, n := range nodes {
		o.RestartNode(n)
	}
	o.Sched.Run(o.Sched.Now() + 10*time.Minute + interval)
	check("after a restart")
}

// TestAnsweredLookupsLeaveNothingPending: a lookup completes on its first
// answer, so an edge that has looked up goes idle again. The rendezvous of
// the idle overlay publish resources, and every edge looks them up closed
// loop, the next lookup leaving from the previous one's callback: the
// resolver must have dropped the answered query by then, so no edge ever
// holds more than the one query in flight. After the phase every resolver is
// quiescent and every edge leased and idle.
func TestAnsweredLookupsLeaveNothingPending(t *testing.T) {
	o := buildIdleOverlay(t, 5)
	defer o.StopAll()
	const resources, perEdge = 8, 25
	for k := 0; k < resources; k++ {
		name := fmt.Sprintf("held-%d", k)
		o.Rdvs[k%len(o.Rdvs)].Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	answered, running := 0, len(o.Edges)
	for i, e := range o.Edges {
		var ask func(k int)
		ask = func(k int) {
			if !e.Resolver.Quiescent() {
				t.Errorf("edge %s still holds a query when it issues lookup %d", e.Config.Name, k)
			}
			e.Discovery.FlushCache()
			if k == perEdge {
				running--
				return
			}
			next := func() { ask(k + 1) }
			err := e.Discovery.Query("Resource", "Name", fmt.Sprintf("held-%d", (i+k)%resources),
				func(discovery.Result) { answered++; next() }, next)
			if err != nil {
				t.Fatal(err)
			}
		}
		e.Env.After(0, func() { ask(0) })
	}
	o.Sched.Run(o.Sched.Now() + 10*time.Minute)
	if running != 0 || answered != len(o.Edges)*perEdge {
		t.Fatalf("%d of %d lookups answered, %d edges still looking up", answered, len(o.Edges)*perEdge, running)
	}
	for _, p := range append(o.Rdvs, o.Edges...) {
		if !p.Resolver.Quiescent() {
			t.Errorf("%s holds a pending query after the lookup phase", p.Config.Name)
		}
	}
	for _, e := range o.Edges {
		if !idleLeased(e) {
			t.Errorf("edge %s is not leased and idle after the lookup phase", e.Config.Name)
		}
	}
}

// TestHibernatingEdgeReportsItsRoutes: a scrape must not depend on whether
// the peer happens to be idle. The jxta_endpoint_routes gauge of a leased,
// idle edge counts the routes it holds, its rendezvous among them. The gauge
// is read before KnownPeers so that nothing touches the endpoint first.
func TestHibernatingEdgeReportsItsRoutes(t *testing.T) {
	o := buildIdleOverlay(t, 5)
	defer o.StopAll()
	for _, e := range o.Edges {
		if !idleLeased(e) {
			t.Fatalf("edge %s not leased and idle at steady state", e.Config.Name)
		}
		gauge := e.Metrics.Snapshot()["jxta_endpoint_routes"]
		if known := len(e.Endpoint.KnownPeers()); gauge < 1 || gauge != float64(known) {
			t.Errorf("edge %s: jxta_endpoint_routes = %v while it routes to %d peers", e.Config.Name, gauge, known)
		}
	}
}

// overlayFingerprint is what two replays of one scenario must agree on.
func overlayFingerprint(o *deploy.Overlay) string {
	st := o.Net.Stats()
	return fmt.Sprintf("steps=%d msgs=%d bytes=%d dropped=%d", o.Sched.Steps(), st.Messages, st.Bytes, st.Dropped)
}

// replaysTwice runs the scenario twice in one process and fails if the two
// runs differ: the pooled RNG registers may not leak one run's state into
// the next.
func replaysTwice(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	if a, b := scenario(t), scenario(t); a != b {
		t.Errorf("replay diverged\n first:  %s\n second: %s", a, b)
	}
}

// TestHibernateKillRestartPromote drives the lifecycle verbs against edges
// whose register was released: kill one, restart it (it must re-lease and be
// idle again, still without a register), then promote another (it must come
// up as a live rendezvous, draw from the stream it left at its peer ID, and
// keep the register).
func TestHibernateKillRestartPromote(t *testing.T) {
	replaysTwice(t, func(t *testing.T) string {
		o := buildIdleOverlay(t, 6)
		defer o.StopAll()
		e := o.Edges[0]
		e.Kill()
		if !e.Hibernating() || randResident(e) {
			t.Fatal("a killed edge holds work in flight or an RNG register")
		}
		o.Sched.Run(o.Sched.Now() + time.Minute)
		o.RestartNode(e)
		o.Sched.Run(o.Sched.Now() + 8*time.Minute)
		if !idleLeased(e) {
			t.Fatal("restarted edge did not re-lease and go idle")
		}
		if randResident(e) {
			t.Fatal("a restart made the edge draw from its RNG")
		}

		p := o.Edges[1]
		p.PromoteToRendezvous()
		if !p.IsRendezvous() || p.Hibernating() {
			t.Fatal("promotion of a released edge failed")
		}
		o.Sched.Run(o.Sched.Now() + 8*time.Minute)
		if p.PeerView.Size() < 2 {
			t.Fatalf("promoted edge sees %d of 2 rendezvous", p.PeerView.Size())
		}
		if !randResident(p) {
			t.Fatal("a promoted edge's happy peerview ticks did not rebuild its RNG register")
		}
		return overlayFingerprint(o)
	})
}

// TestHibernateDormantEdgesWakeOnTierDeath kills the entire rendezvous tier
// under a population of idle edges: every edge must notice on its own
// missed-renewal timer, run failover, and heal the overlay through promotion
// — and do so identically twice.
func TestHibernateDormantEdgesWakeOnTierDeath(t *testing.T) {
	replaysTwice(t, func(t *testing.T) string {
		o := buildIdleOverlay(t, 7)
		defer o.StopAll()
		for _, e := range o.Edges {
			if !idleLeased(e) || randResident(e) {
				t.Fatalf("edge %s not idle and released before tier death", e.Config.Name)
			}
		}
		o.KillRdv(0)
		o.KillRdv(1)
		o.Sched.Run(o.Sched.Now() + 30*time.Minute)
		promoted, leased := 0, 0
		for _, e := range o.Edges {
			if e.IsRendezvous() {
				promoted++
			} else if _, ok := e.Rendezvous.ConnectedRdv(); ok {
				leased++
			}
		}
		if promoted == 0 {
			t.Fatal("no idle edge promoted after tier death")
		}
		if leased == 0 {
			t.Fatal("no surviving edge re-leased onto the promoted tier")
		}
		return fmt.Sprintf("%s promoted=%d leased=%d", overlayFingerprint(o), promoted, leased)
	})
}
