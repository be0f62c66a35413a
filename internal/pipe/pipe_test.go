package pipe_test

import (
	"testing"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/node"
	"jxta/internal/pipe"
	"jxta/internal/rendezvous"
	"jxta/internal/topology"
)

// rig deploys a small converged overlay with two edges and pipe services.
type rig struct {
	o       *deploy.Overlay
	binder  *node.Node
	sender  *node.Node
	binderP *pipe.Service
	senderP *pipe.Service
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		NumRdv:   5,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "binder"},
			{AttachTo: 4, Count: 1, Prefix: "sender"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	binder, sender := o.Edges[0], o.Edges[1]
	r := &rig{
		o:       o,
		binder:  binder,
		sender:  sender,
		binderP: pipe.New(binder.Env, binder.Endpoint, binder.Discovery, binder.Rendezvous),
		senderP: pipe.New(sender.Env, sender.Endpoint, sender.Discovery, sender.Rendezvous),
	}
	o.Sched.Run(12 * time.Minute) // converge + leases
	return r
}

func (r *rig) run(d time.Duration) { r.o.Sched.Run(r.o.Sched.Now() + d) }

func TestBindConnectSend(t *testing.T) {
	r := newRig(t, 1)
	adv := pipe.NewPipeAdv(r.binder.ID, "inbox")
	var got []string
	var from ids.ID
	in, err := r.binderP.Bind(adv, func(src ids.ID, data []byte) {
		got = append(got, string(data))
		from = src
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute) // SRDI push of the pipe advertisement

	var out *pipe.OutputPipe
	r.senderP.Connect(adv.PipeID, func(o *pipe.OutputPipe, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		out = o
	})
	r.run(time.Minute)
	if out == nil {
		t.Fatal("pipe never resolved")
	}
	if !out.Binder.Equal(r.binder.ID) {
		t.Fatalf("resolved binder %s, want %s", out.Binder.Short(), r.binder.ID.Short())
	}
	for _, payload := range []string{"hello", "world"} {
		if err := out.Send([]byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	r.run(time.Minute)
	if len(got) != 2 || got[0] != "hello" || got[1] != "world" {
		t.Fatalf("received %v", got)
	}
	if !from.Equal(r.sender.ID) {
		t.Fatal("sender identity lost")
	}
	if in.Received != 2 || out.Sent != 2 {
		t.Fatalf("counters: in=%d out=%d", in.Received, out.Sent)
	}
}

func TestDoubleBindRejected(t *testing.T) {
	r := newRig(t, 2)
	adv := pipe.NewPipeAdv(r.binder.ID, "dup")
	if _, err := r.binderP.Bind(adv, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.binderP.Bind(adv, nil); err == nil {
		t.Fatal("double bind accepted")
	}
}

func TestConnectUnknownPipeFails(t *testing.T) {
	r := newRig(t, 3)
	ghost := ids.FromName(ids.KindPipe, "ghost")
	var gotErr error
	done := false
	r.senderP.Connect(ghost, func(_ *pipe.OutputPipe, err error) {
		gotErr = err
		done = true
	})
	r.run(2 * time.Minute)
	if !done || gotErr == nil {
		t.Fatalf("unresolvable connect: done=%v err=%v", done, gotErr)
	}
}

func TestClosedPipeDropsMessages(t *testing.T) {
	r := newRig(t, 4)
	adv := pipe.NewPipeAdv(r.binder.ID, "closing")
	received := 0
	in, err := r.binderP.Bind(adv, func(ids.ID, []byte) { received++ })
	if err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	out := r.senderP.ConnectAdv(adv, r.binder.ID)
	// Route to the binder: learn it from the rendezvous network by
	// resolving once through Connect.
	var live *pipe.OutputPipe
	r.senderP.Connect(adv.PipeID, func(o *pipe.OutputPipe, err error) {
		if err == nil {
			live = o
		}
	})
	r.run(time.Minute)
	if live == nil {
		t.Fatal("resolution failed")
	}
	_ = out
	live.Send([]byte("before"))
	r.run(time.Minute)
	in.Close()
	live.Send([]byte("after"))
	r.run(time.Minute)
	if received != 1 {
		t.Fatalf("received %d payloads, want 1 (post-close drop)", received)
	}
}

func TestSendUnresolved(t *testing.T) {
	r := newRig(t, 5)
	out := &pipe.OutputPipe{}
	_ = r
	if err := out.Send([]byte("x")); err == nil {
		t.Fatal("send on unresolved pipe succeeded")
	}
}

// TestPropagateFanOut binds one propagate pipe on edges attached to
// different rendezvous (and on a rendezvous itself) and checks a single
// send reaches every listener exactly once, including the sender's own
// loopback delivery.
func TestPropagateFanOut(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed:     21,
		NumRdv:   5,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "sender"},
			{AttachTo: 2, Count: 1, Prefix: "subA"},
			{AttachTo: 4, Count: 1, Prefix: "subB"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	adv := pipe.NewPropagateAdv("news")
	counts := make([]int, 4)
	var origins []ids.ID
	svcs := make([]*pipe.Service, 0, 4)
	peers := []*node.Node{o.Edges[0], o.Edges[1], o.Edges[2], o.Rdvs[1]}
	for i, n := range peers {
		i := i
		svc := pipe.New(n.Env, n.Endpoint, n.Discovery, n.Rendezvous)
		if _, err := svc.Bind(adv, func(src ids.ID, data []byte) {
			if string(data) != "flash" {
				t.Errorf("listener %d got %q", i, data)
			}
			counts[i]++
			origins = append(origins, src)
		}); err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
	}
	o.Sched.Run(12 * time.Minute) // converge peerviews + leases

	out := svcs[0].ConnectPropagate(adv)
	if err := out.Send([]byte("flash")); err != nil {
		t.Fatal(err)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("listener %d received %d payloads, want exactly 1 (counts=%v)", i, c, counts)
		}
	}
	for _, src := range origins {
		if !src.Equal(o.Edges[0].ID) {
			t.Fatal("propagate origin identity lost")
		}
	}
	if out.Sent != 1 {
		t.Fatalf("Sent=%d", out.Sent)
	}
}

func TestPropagateWithoutLeaseFails(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed:   22,
		NumRdv: 1,
		Edges:  []deploy.EdgeGroup{{AttachTo: 0, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the edge holds no lease, so propagation has no uplink.
	edge := o.Edges[0]
	svc := pipe.New(edge.Env, edge.Endpoint, edge.Discovery, edge.Rendezvous)
	out := svc.ConnectPropagate(pipe.NewPropagateAdv("void"))
	if err := out.Send([]byte("x")); err == nil {
		t.Fatal("propagate without a rendezvous lease succeeded")
	}
}

func TestTwoPipesIndependent(t *testing.T) {
	r := newRig(t, 6)
	advA := pipe.NewPipeAdv(r.binder.ID, "a")
	advB := pipe.NewPipeAdv(r.binder.ID, "b")
	var gotA, gotB []string
	if _, err := r.binderP.Bind(advA, func(_ ids.ID, d []byte) { gotA = append(gotA, string(d)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.binderP.Bind(advB, func(_ ids.ID, d []byte) { gotB = append(gotB, string(d)) }); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	var outA, outB *pipe.OutputPipe
	r.senderP.Connect(advA.PipeID, func(o *pipe.OutputPipe, err error) { outA = o })
	r.senderP.Connect(advB.PipeID, func(o *pipe.OutputPipe, err error) { outB = o })
	r.run(time.Minute)
	if outA == nil || outB == nil {
		t.Fatal("resolution failed")
	}
	outA.Send([]byte("to-a"))
	outB.Send([]byte("to-b"))
	r.run(time.Minute)
	if len(gotA) != 1 || gotA[0] != "to-a" || len(gotB) != 1 || gotB[0] != "to-b" {
		t.Fatalf("cross-talk: a=%v b=%v", gotA, gotB)
	}
}

// TestConnectResolvesOnceWithTwoBinders: two peers bind one pipe, so the
// resolution query has two publishers to answer it. A lookup completes on its
// first answer, so Connect hands the sender one OutputPipe, bound to one of
// the two, and not a second one when the other answers.
func TestConnectResolvesOnceWithTwoBinders(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed:     8,
		NumRdv:   5,
		Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{
			{AttachTo: 0, Count: 1, Prefix: "binder-a"},
			{AttachTo: 2, Count: 1, Prefix: "binder-b"},
			{AttachTo: 4, Count: 1, Prefix: "sender"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	defer o.StopAll()
	svcs := make([]*pipe.Service, len(o.Edges))
	for i, e := range o.Edges {
		svcs[i] = pipe.New(e.Env, e.Endpoint, e.Discovery, e.Rendezvous)
	}
	o.Sched.Run(12 * time.Minute)
	adv := pipe.NewPipeAdv(o.Edges[0].ID, "shared")
	for _, svc := range svcs[:2] {
		own := *adv
		if _, err := svc.Bind(&own, func(ids.ID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	var resolved []ids.ID
	svcs[2].Connect(adv.PipeID, func(out *pipe.OutputPipe, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		resolved = append(resolved, out.Binder)
	})
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if len(resolved) != 1 || !(resolved[0].Equal(o.Edges[0].ID) || resolved[0].Equal(o.Edges[1].ID)) {
		t.Fatalf("Connect called back with binders %v, want one of the two", resolved)
	}
}

// TestReturnsToZeroState: the pipe service is small by construction. Fresh,
// it holds no map; a binding allocates the table, a propagated send the dedup
// set (state, not scratch: without it an echo of an already-delivered send
// would be delivered again), and Reset returns both to nil.
func TestReturnsToZeroState(t *testing.T) {
	r := newRig(t, 33)
	svc := r.senderP
	tables := func(when string, wantBound, wantSeen int) {
		t.Helper()
		if b, p := svc.Tables(); b != wantBound || p != wantSeen {
			t.Fatalf("%s: bound=%d propSeen=%d, want %d and %d (-1: not allocated)", when, b, p, wantBound, wantSeen)
		}
	}
	tables("fresh", -1, -1)
	adv := pipe.NewPropagateAdv("zero")
	got := 0
	in, err := svc.Bind(adv, func(ids.ID, []byte) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	tables("bound", 1, -1)
	if err := svc.ConnectPropagate(adv).Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	if got != 1 {
		t.Fatalf("delivered %d payloads, want 1", got)
	}
	in.Close()
	tables("closed", 0, 1)
	svc.Reset()
	tables("reset", -1, -1)
}

// TestPropagateWalkHandlerDoesNotKeepTheBody is the rendezvous.WalkHandler
// contract from the pipe service's side: the walked message — elements,
// names and payloads — is on loan, and the walker takes it back when the
// handler returns; here it is emptied, refilled with junk and the payload
// buffer overwritten at that moment. What the handler passed on before
// returning (the local delivery, the fan-out to its clients) must be whole.
func TestPropagateWalkHandlerDoesNotKeepTheBody(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{
		Seed: 33, NumRdv: 1, Topology: topology.Chain,
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 2, Prefix: "sub"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	adv := pipe.NewPropagateAdv("news")
	var kept [][]byte
	var rdvPipe *pipe.Service
	for _, n := range []*node.Node{o.Rdvs[0], o.Edges[0], o.Edges[1]} {
		svc := pipe.New(n.Env, n.Endpoint, n.Discovery, n.Rendezvous)
		if _, err := svc.Bind(adv, func(_ ids.ID, data []byte) { kept = append(kept, data) }); err != nil {
			t.Fatal(err)
		}
		if n == o.Rdvs[0] {
			rdvPipe = svc
		}
	}
	o.Sched.Run(2 * time.Minute)

	origin := ids.FromName(ids.KindPeer, "elsewhere")
	payload := []byte("flash")
	body := message.New()
	body.AddString("pipe", "Id", adv.PipeID.String())
	body.AddString("pipe", "Origin", origin.String())
	body.AddString("pipe", "PID", "elsewhere-1")
	body.Add("pipe", "Data", payload)
	if rdvPipe.HandlePropagateWalk(origin, rendezvous.Up, body) {
		t.Fatal("a propagate walk must cover the whole view")
	}
	copy(payload, "XXXXX")
	body.Reset()
	for i := 0; i < 8; i++ {
		body.AddString("pipe", []string{"Id", "Origin", "PID", "Data"}[i%4], "poisoned")
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if len(kept) != 3 {
		t.Fatalf("%d deliveries, want 3 (the rendezvous and its two clients)", len(kept))
	}
	for i, data := range kept {
		if string(data) != "flash" {
			t.Fatalf("delivery %d reads %q", i, data)
		}
	}
}

// TestReceiveCallbackOwnsItsBytes: the receiver a pipe is bound with may keep
// the slices it is called with (pipe.Receiver, jxta.Peer.JoinChannel). They
// are copies made where the stack ends: neither the delivered message the
// transport takes back, nor — on a propagate pipe's local loopback — the
// sender's own buffer, which it reuses for the next payload.
func TestReceiveCallbackOwnsItsBytes(t *testing.T) {
	r := newRig(t, 9)
	inbox := pipe.NewPipeAdv(r.binder.ID, "inbox")
	news := pipe.NewPropagateAdv("news")
	var unicast, atBinder, atSender [][]byte
	keep := func(into *[][]byte) pipe.Receiver {
		return func(_ ids.ID, data []byte) { *into = append(*into, data) }
	}
	if _, err := r.binderP.Bind(inbox, keep(&unicast)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.binderP.Bind(news, keep(&atBinder)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.senderP.Bind(news, keep(&atSender)); err != nil {
		t.Fatal(err)
	}
	r.run(time.Minute)
	var out *pipe.OutputPipe
	r.senderP.Connect(inbox.PipeID, func(o *pipe.OutputPipe, err error) { out = o })
	r.run(time.Minute)
	if out == nil {
		t.Fatal("pipe never resolved")
	}
	channel := r.senderP.ConnectPropagate(news)
	buf := make([]byte, 1)
	const n = 5
	for i := byte(0); i < n; i++ {
		buf[0] = 'a' + i // one buffer for every payload, as a sender may
		if err := out.Send(buf); err != nil {
			t.Fatal(err)
		}
		if err := channel.Send(buf); err != nil {
			t.Fatal(err)
		}
		r.run(time.Second)
	}
	r.run(time.Minute)
	for name, got := range map[string][][]byte{"unicast": unicast, "propagate, remote": atBinder, "propagate, loopback": atSender} {
		if len(got) != n {
			t.Fatalf("%s: %d payloads, want %d", name, len(got), n)
		}
		for i, data := range got {
			if want := string(rune('a' + i)); string(data) != want {
				t.Errorf("%s: payload %d now reads %q, want %q", name, i, data, want)
			}
		}
	}
}
