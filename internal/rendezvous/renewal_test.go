package rendezvous

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"jxta/internal/israce"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// TestLeaseRenewalAllocs is the gate on one steady-state lease round trip in
// the self-healing, island-merging configuration: request (address, a window
// of rumors) → grant (4 alternates, a roster of 10, rumors) → learn → re-arm,
// on a rendezvous with a 4-member view and 10 leased edges, once every roster,
// alternate list and rumor store has settled. Nothing the round trip carries
// is new, so nothing it carries reaches the heap, and the two timers an edge
// arms (the grant timeout, the renewal) return their env.Event handles by
// value: the round trip allocates nothing. Rendering every record with
// String()/concat/strconv and re-parsing the unchanged grant state with
// strings.Fields on every renewal took 111 here; boxing each timer handle
// into an interface took 2.
func TestLeaseRenewalAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := selfHealCfg()
	cfg.IslandMerge = true
	sched := simnet.NewScheduler(5)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdvs := newRdvOverlayCfg(t, sched, net, 5, cfg)
	sched.Run(10 * time.Minute)
	at := rdvs[2]
	if at.pv.Size() != 4 {
		t.Fatalf("the rendezvous sees %d of 4 members", at.pv.Size())
	}
	edges := make([]*edgePeer, 10)
	for i := range edges {
		edges[i] = newEdge(t, sched, net, fmt.Sprintf("edge%d", i), []peerview.Seed{{ID: at.id, Addr: at.tr.Addr()}}, cfg)
		edges[i].svc.Start()
	}
	sched.Run(sched.Now() + 2*cfg.LeaseDuration + time.Second) // several renewals each, the next one half a lease away
	edge := edges[3].svc
	if got, ok := edge.ConnectedRdv(); !ok || !got.Equal(at.id) || len(edge.Roster()) != 10 || len(edge.Alternates()) != 4 {
		t.Fatalf("the rig did not converge: connected %v, roster %d, alternates %d", ok, len(edge.Roster()), len(edge.Alternates()))
	}
	renewed := at.svc.m.renewed
	roundTrip := func() {
		edge.cli.requestLease()
		sched.Run(sched.Now() + 10*time.Millisecond)
	}
	got := testing.AllocsPerRun(50, roundTrip)
	if n := at.svc.m.renewed - renewed; n != 51 { // AllocsPerRun adds a warm-up call
		t.Fatalf("%d renewals granted over 51 round trips", n)
	}
	t.Logf("%.0f allocations per renewal round trip", got)
	if got != 0 {
		t.Fatalf("a steady-state renewal round trip allocates %.0f objects, want 0", got)
	}
}

// TestServiceFitsItsSizeClass: every edge holds one Service — the shared
// core and the lease client, with its server half nil — and a million idle
// edges hold a million of them, so it stays inside the 512-byte size class
// (448 since the split by role). The rendezvous' server half is a separate
// object an edge never allocates.
func TestServiceFitsItsSizeClass(t *testing.T) {
	size := unsafe.Sizeof(Service{})
	t.Logf("an edge's Service is %d bytes: core %d, client %d", size, unsafe.Sizeof(core{}), unsafe.Sizeof(client{}))
	if size > 512 {
		t.Fatalf("Service is %d bytes, over the 512-byte size class", size)
	}
}
