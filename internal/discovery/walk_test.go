package discovery_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
	"jxta/internal/simnet"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// walkedRig is a rendezvous whose index holds a tuple of a publishing edge,
// and a tap on the queries the rendezvous forwards to that publisher.
type walkedRig struct {
	o         *deploy.Overlay
	rdv, pub  *node.Node
	searcher  *node.Node
	forwarded []*message.Message
}

func newWalkedRig(t *testing.T, cfg discovery.Config) *walkedRig {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed: 31, NumRdv: 1, Topology: topology.Chain, Discovery: cfg,
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 2, Prefix: "edge"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(time.Minute)
	r := &walkedRig{o: o, rdv: o.Rdvs[0], pub: o.Edges[0], searcher: o.Edges[1]}
	r.pub.Discovery.Publish(&advertisement.Peer{PeerID: r.pub.ID, Name: "Walked"}, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if len(r.rdv.Discovery.Index().Publishers("PeerNameWalked")) != 1 {
		t.Fatal("tuple did not reach the rendezvous")
	}
	pubAddr, _ := r.rdv.Endpoint.RouteTo(r.pub.ID)
	o.Net.OnSend = func(_, to transport.Addr, m *message.Message) {
		if to == pubAddr && endpoint.ServiceOf(m) == resolver.ServiceName {
			r.forwarded = append(r.forwarded, m.Clone())
		}
	}
	return r
}

const walkedPayload = "<disco:Q><Type>Peer</Type><Attr>Name</Attr><Value>Walked</Value><Stage>replica</Stage></disco:Q>"

// walkedBody is the message discovery walks: the resolver query's header
// and payload, plus the key to look up at each hop.
func (r *walkedRig) walkedBody(hops string) *message.Message {
	m := message.New()
	m.AddString("disco", "QID", "77")
	m.AddString("disco", "Src", r.searcher.ID.String())
	m.AddString("disco", "SrcAddr", string(r.searcher.Endpoint.Addr()))
	if hops != "absent" {
		m.AddString("disco", "Hops", hops)
	}
	m.AddString("disco", "Key", "PeerNameWalked")
	m.AddString("disco", "Payload", walkedPayload)
	return m
}

// TestWalkedHopCountIsBounded: the hop count of a walked query comes off the
// wire, and a hit turns it into a resolver query that is forwarded. It is
// held to 0 <= hops < MaxHops, as resolver.receive holds its own: anything
// else stops the walk (there was a hit) and forwards nothing. A negative
// count used to pass, and bought the query as many extra forwards.
func TestWalkedHopCountIsBounded(t *testing.T) {
	cases := []struct {
		hops    string
		forward string // the res:Hops the publisher is sent; "": nothing is sent
	}{
		{"0", "2"}, // the walk hop, then the forward to the publisher
		{"5", "7"},
		{"+5", "7"},
		{strconv.Itoa(resolver.MaxHops - 3), strconv.Itoa(resolver.MaxHops - 1)},
		{strconv.Itoa(resolver.MaxHops - 2), ""}, // in bounds, but Forward's own limit stops it
		{strconv.Itoa(resolver.MaxHops - 1), ""},
		{strconv.Itoa(resolver.MaxHops), ""},
		{"-1", ""}, {"-2", ""}, {"-1000000", ""},
		{"99999999999999999999", ""}, {"many", ""}, {"", ""}, {"absent", ""},
	}
	for _, c := range cases {
		t.Run("hops="+c.hops, func(t *testing.T) {
			r := newWalkedRig(t, discovery.Config{}) // no scan cost: a hit forwards at once
			stop := r.rdv.Discovery.HandleWalk(r.searcher.ID, rendezvous.Up, r.walkedBody(c.hops))
			if !stop {
				t.Fatal("walk goes on past a hit")
			}
			if c.forward == "" {
				if len(r.forwarded) != 0 {
					t.Fatalf("forwarded %s", r.forwarded[0])
				}
				return
			}
			if len(r.forwarded) != 1 {
				t.Fatalf("%d queries forwarded, want 1", len(r.forwarded))
			}
			fwd := r.forwarded[0]
			for name, want := range map[string]string{
				"Hops": c.forward, "QID": "77", "Src": r.searcher.ID.String(),
				"SrcAddr": string(r.searcher.Endpoint.Addr()), "Handler": discovery.HandlerName,
				"Query": strings.Replace(walkedPayload, "replica", "deliver", 1),
			} {
				if got := fwd.GetString("res", name); got != want {
					t.Errorf("forwarded with %s=%q, want %q", name, got, want)
				}
			}
		})
	}
}

// TestWalkHandlerDoesNotKeepTheBody is the rendezvous.WalkHandler contract
// from discovery's side: the walked message is on loan. With a scan cost the
// hit is forwarded later, from a timer; by then the walker has taken the
// message back — here it is emptied and refilled with junk the moment the
// handler returns — and the forward must still carry the query it read.
func TestWalkHandlerDoesNotKeepTheBody(t *testing.T) {
	r := newWalkedRig(t, discovery.DefaultConfig())
	body := r.walkedBody("0")
	if !r.rdv.Discovery.HandleWalk(r.searcher.ID, rendezvous.Up, body) {
		t.Fatal("walk goes on past a hit")
	}
	if len(r.forwarded) != 0 {
		t.Fatal("forwarded at once: the scan cost did not defer it, and the test shows nothing")
	}
	body.Reset()
	for i := 0; i < 8; i++ {
		body.AddString("disco", []string{"QID", "Src", "Hops", "Payload"}[i%4], "poisoned")
	}
	r.o.Sched.Run(r.o.Sched.Now() + time.Second)
	if len(r.forwarded) != 1 {
		t.Fatalf("%d queries forwarded, want 1", len(r.forwarded))
	}
	fwd := r.forwarded[0]
	if fwd.GetString("res", "QID") != "77" || fwd.GetString("res", "Src") != r.searcher.ID.String() ||
		fwd.GetString("res", "Query") != strings.Replace(walkedPayload, "replica", "deliver", 1) {
		t.Fatalf("forwarded %s: QID %q, query %q", fwd, fwd.GetString("res", "QID"), fwd.GetString("res", "Query"))
	}
	if r.pub.Discovery.Stats.Delivered != 1 {
		t.Fatal("the publisher did not answer the forwarded query")
	}
}

// TestScanCostNeedsABusySink: ScanCost models the time a simulated
// rendezvous spends scanning its index. A node on a transport that cannot be
// charged for it — every live one — must neither charge nor wait: it used to
// arm a real timer of ScanCost × index size per hop (50 ms at 13k tuples).
// Here a rendezvous on a simulated transport stripped of its Busy method, as
// TCP has none, with DefaultConfig and a populated index, answers without
// ever parking a query behind its scan cost.
func TestScanCostNeedsABusySink(t *testing.T) {
	sched := simnet.NewScheduler(3)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	mk := func(name string, role node.Role, seeds ...peerview.Seed) *node.Node {
		tr, err := net.Attach(name, netmodel.Rennes)
		if err != nil {
			t.Fatal(err)
		}
		n := node.New(sched.NewEnv(name), noBusySink{tr}, node.Config{
			Name: name, Role: role, Seeds: seeds, Discovery: discovery.DefaultConfig(),
		})
		n.Start()
		return n
	}
	rdv := mk("rdv", node.Rendezvous)
	pub, searcher := mk("pub", node.Edge, rdv.Seed()), mk("searcher", node.Edge, rdv.Seed())
	sched.Run(time.Minute)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("res-%d", i)
		pub.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
	}
	sched.Run(sched.Now() + time.Minute)
	if rdv.Discovery.Index().Size() < 200 {
		t.Fatalf("index holds %d tuples", rdv.Discovery.Index().Size())
	}
	if discovery.DefaultConfig().ScanCost <= 0 {
		t.Fatal("DefaultConfig has no scan cost: the test shows nothing")
	}
	found := 0
	for i := 0; i < 5; i++ {
		err := searcher.Discovery.Query("Resource", "Name", fmt.Sprintf("res-%d", i), func(discovery.Result) { found++ }, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	sched.Run(sched.Now() + time.Second)
	if found != 5 {
		t.Fatalf("%d of 5 lookups answered", found)
	}
	for _, n := range []*node.Node{rdv, pub, searcher} {
		if _, parked, _ := n.Discovery.Tables(); parked != -1 {
			t.Fatalf("%s parked a query behind its scan cost (%d in flight)", n.Config.Name, parked)
		}
	}
}

// noBusySink is a transport without a Busy method to charge local work to.
type noBusySink struct{ transport.Transport }
