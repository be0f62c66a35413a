package deploy

import (
	"testing"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

func TestBuildChainWithEdges(t *testing.T) {
	o, err := Build(Spec{
		Seed:     1,
		NumRdv:   5,
		Topology: topology.Chain,
		Edges: []EdgeGroup{
			{AttachTo: 0, Count: 2, Prefix: "pub"},
			{AttachTo: 4, Count: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rdvs) != 5 || len(o.Edges) != 3 {
		t.Fatalf("rdvs=%d edges=%d", len(o.Rdvs), len(o.Edges))
	}
	if !o.Rdvs[0].IsRendezvous() || o.Edges[0].IsRendezvous() {
		t.Fatal("roles wrong")
	}
	if o.Edges[0].Config.Name != "pub0" || o.Edges[2].Config.Name != "edge2" {
		t.Fatalf("edge names: %q %q", o.Edges[0].Config.Name, o.Edges[2].Config.Name)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{NumRdv: -1}); err == nil {
		t.Fatal("negative NumRdv accepted")
	}
	if _, err := Build(Spec{NumRdv: 2, Edges: []EdgeGroup{{AttachTo: 5, Count: 1}}}); err == nil {
		t.Fatal("out-of-range edge attachment accepted")
	}
	if _, err := Build(Spec{NumRdv: 3, Topology: topology.Kind(99)}); err == nil {
		t.Fatal("bad topology accepted")
	}
}

func TestDefaultModelIsGrid5000(t *testing.T) {
	o, err := Build(Spec{Seed: 2, NumRdv: 2, Topology: topology.Chain})
	if err != nil {
		t.Fatal(err)
	}
	// A probe between two sites takes the Grid'5000 latency of that pair,
	// give or take its jitter, plus the stack's service time.
	a, _ := o.Net.Attach("probe-a", netmodel.Rennes)
	b, _ := o.Net.Attach("probe-b", netmodel.Sophia)
	start := o.Sched.Now()
	var took time.Duration
	b.SetHandler(func(transport.Addr, *message.Message) { took = o.Sched.Now() - start })
	if err := a.Send(b.Addr(), message.New()); err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(start + time.Second)
	g := netmodel.Grid5000()
	base := g.BaseLatency(netmodel.Rennes, netmodel.Sophia)
	lo := time.Duration(float64(base)*(1-g.Jitter)) + g.StackService
	hi := time.Duration(float64(base)*(1+g.Jitter)) + g.StackService + time.Millisecond
	if took < lo || took > hi {
		t.Fatalf("rennes → sophia took %v, want %v–%v: the default model is not Grid'5000", took, lo, hi)
	}
}

func TestOverlayConvergesAndConnects(t *testing.T) {
	o, err := Build(Spec{
		Seed:     3,
		NumRdv:   6,
		Topology: topology.Tree,
		Edges:    []EdgeGroup{{AttachTo: 2, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)
	for i, rdv := range o.Rdvs {
		if rdv.PeerView.Size() != 5 {
			t.Fatalf("rdv %d view size %d, want 5", i, rdv.PeerView.Size())
		}
	}
	for i, e := range o.Edges {
		if got, ok := e.Rendezvous.ConnectedRdv(); !ok || !got.Equal(o.Rdvs[2].ID) {
			t.Fatalf("edge %d not leased to rdv2", i)
		}
	}
	o.StopAll()
}

func TestAddEdgeAfterBuild(t *testing.T) {
	o, err := Build(Spec{Seed: 4, NumRdv: 3, Topology: topology.Chain})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(5 * time.Minute)
	e, err := o.AddEdge("late", 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if got, ok := e.Rendezvous.ConnectedRdv(); !ok || !got.Equal(o.Rdvs[1].ID) {
		t.Fatal("late edge did not connect")
	}
}

func TestKillRdvDetaches(t *testing.T) {
	o, err := Build(Spec{Seed: 5, NumRdv: 3, Topology: topology.Chain})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(5 * time.Minute)
	addr := o.Rdvs[1].Endpoint.Addr()
	o.KillRdv(1)
	if _, ok := o.Net.Lookup(addr); ok {
		t.Fatal("killed rdv still attached")
	}
	// The remaining peers keep running.
	o.Sched.Run(o.Sched.Now() + 5*time.Minute)
}

func TestDuplicateEdgeNameRejected(t *testing.T) {
	o, err := Build(Spec{Seed: 6, NumRdv: 1, Topology: topology.Chain})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddEdge("dup", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddEdge("dup", 0); err == nil {
		t.Fatal("duplicate edge name accepted")
	}
}

func TestDeterministicBuild(t *testing.T) {
	build := func() string {
		o, err := Build(Spec{Seed: 7, NumRdv: 4, Topology: topology.Chain})
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, r := range o.Rdvs {
			s += r.ID.String()
		}
		return s
	}
	if build() != build() {
		t.Fatal("same seed built different overlays")
	}
}
