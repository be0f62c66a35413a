package endpoint

import (
	"math/rand"
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// rig bundles a simulated peer endpoint for tests.
type rig struct {
	id ids.ID
	ep *Endpoint
	tr *transport.Sim
}

func newRig(t *testing.T, sched *simnet.Scheduler, net *transport.Network, name string, site netmodel.Site) *rig {
	t.Helper()
	e := sched.NewEnv(name)
	tr, err := net.Attach(name, site)
	if err != nil {
		t.Fatal(err)
	}
	id := ids.NewRandom(ids.KindPeer, rand.New(rand.NewSource(int64(len(name))+int64(name[0])*31)))
	return &rig{id: id, ep: New(e, id, tr), tr: tr}
}

func setup(t *testing.T) (*simnet.Scheduler, *transport.Network, *rig, *rig, *rig) {
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	a := newRig(t, sched, net, "a", netmodel.Rennes)
	b := newRig(t, sched, net, "b", netmodel.Sophia)
	c := newRig(t, sched, net, "c", netmodel.Lyon)
	return sched, net, a, b, c
}

func body(s string) *message.Message { return message.New().AddString("app", "body", s) }

func TestDirectSend(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	var got string
	var from ids.ID
	b.ep.Register("svc", func(src ids.ID, m *message.Message) {
		got = m.GetString("app", "body")
		from = src
	})
	a.ep.AddRoute(b.id, b.tr.Addr())
	if err := a.ep.Send(b.id, "svc", body("hi")); err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if got != "hi" || !from.Equal(a.id) {
		t.Fatalf("got=%q from=%s", got, from.Short())
	}
}

func TestLocalSendBypassesNetwork(t *testing.T) {
	sched, net, a, _, _ := setup(t)
	var got string
	a.ep.Register("svc", func(src ids.ID, m *message.Message) {
		got = m.GetString("app", "body")
		if !src.Equal(a.id) {
			t.Errorf("local src = %s", src.Short())
		}
	})
	if err := a.ep.Send(a.id, "svc", body("self")); err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if got != "self" {
		t.Fatalf("got %q", got)
	}
	if net.Stats().Messages != 0 {
		t.Fatal("local delivery used the network")
	}
}

func TestLocalSendUnknownService(t *testing.T) {
	_, _, a, _, _ := setup(t)
	if err := a.ep.Send(a.id, "ghost", body("x")); err == nil {
		t.Fatal("local send to unknown service succeeded")
	}
}

func TestSendNoRoute(t *testing.T) {
	_, _, a, b, _ := setup(t)
	if err := a.ep.Send(b.id, "svc", body("x")); err == nil {
		t.Fatal("send without route succeeded")
	}
}

func TestReturnRouteLearning(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	b.ep.Register("svc", func(_ ids.ID, _ *message.Message) {})
	a.ep.AddRoute(b.id, b.tr.Addr())
	a.ep.Send(b.id, "svc", body("x"))
	sched.Run(time.Second)
	addr, ok := b.ep.RouteTo(a.id)
	if !ok || addr != a.tr.Addr() {
		t.Fatalf("return route not learned: %s %v", addr, ok)
	}
}

func TestUnknownServiceDrops(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	a.ep.AddRoute(b.id, b.tr.Addr())
	a.ep.Send(b.id, "nosuch", body("x"))
	sched.Run(time.Second)
	if b.ep.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", b.ep.Drops)
	}
}

func TestAddRouteIgnoresSelfAndEmpty(t *testing.T) {
	_, _, a, b, _ := setup(t)
	a.ep.AddRoute(a.id, "sim://rennes/a")
	a.ep.AddRoute(b.id, "")
	if len(a.ep.KnownPeers()) != 0 {
		t.Fatal("self/empty routes accepted")
	}
}

func TestKnownPeers(t *testing.T) {
	_, _, a, b, c := setup(t)
	a.ep.AddRoute(b.id, b.tr.Addr())
	a.ep.AddRoute(c.id, c.tr.Addr())
	if len(a.ep.KnownPeers()) != 2 {
		t.Fatalf("KnownPeers = %d, want 2", len(a.ep.KnownPeers()))
	}
}

func TestSenderPayloadNotMutated(t *testing.T) {
	sched, _, a, b, _ := setup(t)
	b.ep.Register("svc", func(_ ids.ID, _ *message.Message) {})
	a.ep.AddRoute(b.id, b.tr.Addr())
	m := body("keep")
	a.ep.Send(b.id, "svc", m)
	sched.Run(time.Second)
	if m.Len() != 1 {
		t.Fatalf("Send mutated the caller's message: %s", m)
	}
}

func BenchmarkEndpointSendDeliver(b *testing.B) {
	sched := simnet.NewScheduler(1)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	ea := sched.NewEnv("a")
	eb := sched.NewEnv("b")
	ta, _ := net.Attach("a", netmodel.Rennes)
	tb, _ := net.Attach("b", netmodel.Sophia)
	ida := ids.FromName(ids.KindPeer, "a")
	idb := ids.FromName(ids.KindPeer, "b")
	epa := New(ea, ida, ta)
	epb := New(eb, idb, tb)
	epb.Register("svc", func(_ ids.ID, _ *message.Message) {})
	epa.AddRoute(idb, tb.Addr())
	m := body("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := epa.Send(idb, "svc", m); err != nil {
			b.Fatal(err)
		}
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
}
