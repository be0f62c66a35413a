package node

import (
	"slices"
	"testing"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

func newPair(t *testing.T) (*simnet.Scheduler, *transport.Network, *Node, *Node) {
	t.Helper()
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	trR, err := net.Attach("rdv", netmodel.Rennes)
	if err != nil {
		t.Fatal(err)
	}
	rdv := New(sched.NewEnv("rdv"), trR, Config{Name: "rdv", Role: Rendezvous})
	trE, err := net.Attach("edge", netmodel.Lyon)
	if err != nil {
		t.Fatal(err)
	}
	edge := New(sched.NewEnv("edge"), trE, Config{
		Name:  "edge",
		Role:  Edge,
		Seeds: []peerview.Seed{rdv.Seed()},
	})
	return sched, net, rdv, edge
}

// pending is the number of timers n's services hold in the scheduler.
func pending(n *Node) int { return n.Env.(*simnet.NodeEnv).Pending() }

func TestRoleString(t *testing.T) {
	if Edge.String() != "edge" || Rendezvous.String() != "rendezvous" {
		t.Fatal("role names wrong")
	}
}

func TestAssemblyRoles(t *testing.T) {
	_, _, rdv, edge := newPair(t)
	if !rdv.IsRendezvous() || rdv.PeerView == nil || rdv.rdvAdv == nil {
		t.Fatal("rendezvous assembly incomplete")
	}
	if edge.IsRendezvous() || edge.PeerView != nil || edge.rdvAdv != nil {
		t.Fatal("edge assembled rendezvous machinery")
	}
	if rdv.Discovery == nil || rdv.Resolver == nil || rdv.Cache == nil || rdv.Endpoint == nil {
		t.Fatal("missing services")
	}
	if rdv.Discovery.Index() == nil {
		t.Fatal("rendezvous lacks an SRDI index")
	}
	if edge.Discovery.Index() != nil {
		t.Fatal("edge grew an SRDI index")
	}
}

func TestDefaultGroupAndName(t *testing.T) {
	sched := simnet.NewScheduler(2)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	tr, _ := net.Attach("x", netmodel.Rennes)
	n := New(sched.NewEnv("x"), tr, Config{Role: Rendezvous})
	if n.rdvAdv.GroupID != ids.FromName(ids.KindGroup, "NetPeerGroup") {
		t.Fatal("the rendezvous advertisement does not name the NetPeerGroup")
	}
	if n.Config.Name != "x" {
		t.Fatalf("name not defaulted from env: %q", n.Config.Name)
	}
	if n.rdvAdv.Name != "x" || !n.rdvAdv.PeerID.Equal(n.ID) {
		t.Fatal("rdv advertisement fields wrong")
	}
}

func TestStartConnectsEdge(t *testing.T) {
	sched, _, rdv, edge := newPair(t)
	rdv.Start()
	edge.Start()
	sched.Run(time.Minute)
	got, ok := edge.Rendezvous.ConnectedRdv()
	if !ok || !got.Equal(rdv.ID) {
		t.Fatal("edge did not connect after Start")
	}
	edge.Stop()
	rdv.Stop()
	sched.Run(2 * time.Minute)
	if rdv.Rendezvous.HasClient(edge.ID) {
		t.Fatal("lease survived Stop")
	}
}

// TestStartStopIdempotent: a second Start arms nothing more, and a second
// Stop leaves the node down with no timer.
func TestStartStopIdempotent(t *testing.T) {
	sched, _, rdv, _ := newPair(t)
	rdv.Start()
	armed := pending(rdv)
	rdv.Start()
	if armed == 0 || pending(rdv) != armed {
		t.Fatalf("started rendezvous holds %d timers, %d after a second Start", armed, pending(rdv))
	}
	rdv.Stop()
	rdv.Stop()
	if rdv.Started() || pending(rdv) != 0 {
		t.Fatalf("stopped rendezvous: started=%v, %d timers", rdv.Started(), pending(rdv))
	}
	rdv.Start() // restartable
	sched.Run(time.Minute)
}

// TestRestartRearmsTheSameTimers: Stop before Start does nothing, a stopped
// node owns no timer, and Start brings it back with the same timers armed.
func TestRestartRearmsTheSameTimers(t *testing.T) {
	sched, _, rdv, _ := newPair(t)
	rdv.Stop()
	if rdv.Started() || pending(rdv) != 0 {
		t.Fatalf("Stop before Start: started=%v, %d timers", rdv.Started(), pending(rdv))
	}
	rdv.Start()
	armed := pending(rdv)
	if armed == 0 {
		t.Fatal("started rendezvous armed no timer")
	}
	rdv.Stop()
	if pending(rdv) != 0 {
		t.Fatalf("stopped rendezvous holds %d timers", pending(rdv))
	}
	rdv.Start()
	if !rdv.Started() || pending(rdv) != armed {
		t.Fatalf("restarted rendezvous: started=%v, %d timers, want %d", rdv.Started(), pending(rdv), armed)
	}
	sched.Run(time.Minute)
}

// leasedPair starts a rendezvous and an edge, runs until the edge holds a
// lease, and returns the services each later message the edge sends is for.
func leasedPair(t *testing.T) (*simnet.Scheduler, *Node, *Node, *[]string) {
	t.Helper()
	sched, net, rdv, edge := newPair(t)
	sent := new([]string)
	net.OnSend = func(from, _ transport.Addr, m *message.Message) {
		if from == edge.Endpoint.Addr() {
			*sent = append(*sent, endpoint.ServiceOf(m))
		}
	}
	rdv.Start()
	edge.Start()
	sched.Run(time.Minute)
	if !rdv.Rendezvous.HasClient(edge.ID) {
		t.Fatal("edge did not lease")
	}
	*sent = nil
	return sched, rdv, edge, sent
}

// TestStopTearsDownInReverseStartOrder: Stop halts every service, last
// started first. The rendezvous service's teardown is the only one that
// sends: exactly one lease cancel goes out, and the rendezvous drops the
// client at once. The stopped edge keeps no timer, and Start leases again.
func TestStopTearsDownInReverseStartOrder(t *testing.T) {
	sched, rdv, edge, sent := leasedPair(t)
	edge.Stop()
	if !slices.Equal(*sent, []string{rendezvous.LeaseService}) {
		t.Fatalf("Stop sent %v, want one lease cancel", *sent)
	}
	if pending(edge) != 0 {
		t.Fatalf("stopped edge holds %d timers", pending(edge))
	}
	sched.Run(sched.Now() + time.Second)
	if rdv.Rendezvous.HasClient(edge.ID) {
		t.Fatal("the rendezvous kept a client that cancelled its lease")
	}

	edge.Start()
	sched.Run(sched.Now() + time.Minute)
	if !rdv.Rendezvous.HasClient(edge.ID) {
		t.Fatal("restarted edge did not lease again")
	}
}

// TestKillAbortsRendezvousSendsNothing: where Stop stops the rendezvous
// service, Kill aborts it. Nothing is sent, the node keeps no timer, a
// second Kill does nothing more, and the client stays listed at the
// rendezvous until its lease expires.
func TestKillAbortsRendezvousSendsNothing(t *testing.T) {
	sched, rdv, edge, sent := leasedPair(t)
	edge.Kill()
	if len(*sent) != 0 || pending(edge) != 0 || edge.Started() {
		t.Fatalf("Kill sent %v and left %d timers (started=%v)", *sent, pending(edge), edge.Started())
	}
	edge.Kill()
	if len(*sent) != 0 || pending(edge) != 0 {
		t.Fatalf("a second Kill sent %v and left %d timers", *sent, pending(edge))
	}
	sched.Run(sched.Now() + time.Second)
	if !rdv.Rendezvous.HasClient(edge.ID) {
		t.Fatal("a crashed edge's lease ended early: something was sent")
	}
}

// TestPromoteStartsPeerviewOnlyWhenUp: promoting a running edge starts its
// new peerview, which probes its seed; Stop then halts it with the rest.
// Promoting a stopped edge arms nothing until Start.
func TestPromoteStartsPeerviewOnlyWhenUp(t *testing.T) {
	sched, _, rdv, edge := newPair(t)
	rdv.Start()
	edge.Start()
	sched.Run(time.Minute)
	edge.PromoteToRendezvous()
	sched.Run(sched.Now() + time.Minute)
	if !edge.IsRendezvous() || !edge.PeerView.Contains(rdv.ID) || !rdv.PeerView.Contains(edge.ID) {
		t.Fatal("the peerview of an edge promoted while up never ran")
	}
	edge.Stop()
	if pending(edge) != 0 {
		t.Fatalf("stopped promoted node holds %d timers", pending(edge))
	}

	sched, _, rdv, edge = newPair(t)
	rdv.Start()
	edge.PromoteToRendezvous()
	if pending(edge) != 0 {
		t.Fatalf("promoting a stopped edge armed %d timers", pending(edge))
	}
	edge.Start()
	sched.Run(time.Minute)
	if !edge.PeerView.Contains(rdv.ID) {
		t.Fatal("Start did not start the peerview of an edge promoted while down")
	}
}

// TestPromotedNodeProbesItsRuntimeSeeds: an edge that learned its
// rendezvous at runtime (AddSeed, the live join) and holds no configured
// seed seeds its peerview from the lease client's list when promoted, so
// the view reaches the rendezvous it leased from.
func TestPromotedNodeProbesItsRuntimeSeeds(t *testing.T) {
	sched, net, rdv, _ := newPair(t)
	tr, err := net.Attach("joiner", netmodel.Lyon)
	if err != nil {
		t.Fatal(err)
	}
	joiner := New(sched.NewEnv("joiner"), tr, Config{Name: "joiner", Role: Edge})
	rdv.Start()
	joiner.Start()
	joiner.AddSeed(rdv.Seed())
	sched.Run(time.Minute)
	if !rdv.Rendezvous.HasClient(joiner.ID) {
		t.Fatal("the joiner holds no lease")
	}
	joiner.PromoteToRendezvous()
	sched.Run(sched.Now() + 5*time.Minute)
	if !joiner.PeerView.Contains(rdv.ID) || !rdv.PeerView.Contains(joiner.ID) {
		t.Fatalf("promoted joiner's view holds %d members, not its rendezvous", joiner.PeerView.Size())
	}
}

func TestPeerAdv(t *testing.T) {
	_, _, rdv, _ := newPair(t)
	adv := rdv.PeerAdv()
	if !adv.PeerID.Equal(rdv.ID) || adv.Name != "rdv" || len(adv.Addresses) != 1 {
		t.Fatalf("PeerAdv = %+v", adv)
	}
}

func TestDeterministicIDs(t *testing.T) {
	build := func() ids.ID {
		sched := simnet.NewScheduler(77)
		net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
		tr, _ := net.Attach("n", netmodel.Rennes)
		return New(sched.NewEnv("n"), tr, Config{Role: Edge}).ID
	}
	if !build().Equal(build()) {
		t.Fatal("same seed produced different node IDs")
	}
}
