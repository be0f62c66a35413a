package node

import (
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

func newPair(t *testing.T) (*simnet.Scheduler, *Node, *Node) {
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
	return sched, rdv, edge
}

func TestRoleString(t *testing.T) {
	if Edge.String() != "edge" || Rendezvous.String() != "rendezvous" {
		t.Fatal("role names wrong")
	}
}

func TestAssemblyRoles(t *testing.T) {
	_, rdv, edge := newPair(t)
	if !rdv.IsRendezvous() || rdv.PeerView == nil || rdv.RdvAdv() == nil {
		t.Fatal("rendezvous assembly incomplete")
	}
	if edge.IsRendezvous() || edge.PeerView != nil || edge.RdvAdv() != nil {
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
	if n.RdvAdv().GroupID != ids.FromName(ids.KindGroup, "NetPeerGroup") {
		t.Fatal("the rendezvous advertisement does not name the NetPeerGroup")
	}
	if n.Config.Name != "x" {
		t.Fatalf("name not defaulted from env: %q", n.Config.Name)
	}
	if n.RdvAdv().Name != "x" || !n.RdvAdv().PeerID.Equal(n.ID) {
		t.Fatal("rdv advertisement fields wrong")
	}
}

func TestStartConnectsEdge(t *testing.T) {
	sched, rdv, edge := newPair(t)
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

func TestStartStopIdempotent(t *testing.T) {
	sched, rdv, _ := newPair(t)
	rdv.Start()
	rdv.Start()
	rdv.Stop()
	rdv.Stop()
	rdv.Start() // restartable
	sched.Run(time.Minute)
}

func TestPeerAdv(t *testing.T) {
	_, rdv, _ := newPair(t)
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
