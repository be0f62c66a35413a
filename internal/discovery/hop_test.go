package discovery_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/message"
	"jxta/internal/node"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// hopRig is a warmed overlay on DefaultConfig: six rendezvous in a chain with
// an edge on each, and every edge has published eight resources, so every
// rendezvous indexes tuples and parks each query it handles behind their
// scan cost. The edge on the first also publishes the one looked up, named
// hopValue: not protocol vocabulary, so no hop finds its string interned.
type hopRig struct {
	o        *deploy.Overlay
	searcher *node.Node
	// near is the searcher's rendezvous, replica the one that indexes the
	// resource's replica tuple: a lookup goes near -> replica -> publisher.
	near, replica *node.Node
}

const (
	hopValue = "lookup-target"
	hopKey   = "Resource" + "Name" + hopValue
)

func newHopRig(t *testing.T) *hopRig {
	t.Helper()
	o, err := deploy.Build(deploy.Spec{
		Seed: 5, NumRdv: 6, Topology: topology.Chain, Discovery: discovery.DefaultConfig(),
		Edges: []deploy.EdgeGroup{{AttachTo: 0, Count: 1}, {AttachTo: 1, Count: 1}, {AttachTo: 2, Count: 1},
			{AttachTo: 3, Count: 1}, {AttachTo: 4, Count: 1}, {AttachTo: 5, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)
	for i, e := range o.Edges {
		for k := 0; k < 8; k++ {
			name := fmt.Sprintf("hop-%d-%d", i, k)
			e.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
		}
	}
	o.Edges[0].Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, hopValue), Name: hopValue}, 0)
	o.Sched.Run(o.Sched.Now() + time.Minute)
	r := &hopRig{o: o}
	for _, e := range o.Edges[1:] {
		id, _ := e.Rendezvous.ConnectedRdv()
		near := r.rdvOf(t, id)
		replica := r.rdvOf(t, discovery.ReplicaPeer(near.PeerView.View(), hopKey))
		if replica != near && !near.Discovery.Index().Has(hopKey) && replica.Discovery.Index().Has(hopKey) {
			r.searcher, r.near, r.replica = e, near, replica
			return r
		}
	}
	t.Fatal("no searcher's lookup takes the replica path")
	return nil
}

// rdvOf returns the rendezvous node with the given ID.
func (r *hopRig) rdvOf(t *testing.T, id ids.ID) *node.Node {
	t.Helper()
	for _, n := range r.o.Rdvs {
		if n.ID.Equal(id) {
			return n
		}
	}
	t.Fatalf("no rendezvous %s", id.Short())
	return nil
}

// lookup issues one remote lookup of the resource and reports whether it was
// answered within a virtual second.
func (r *hopRig) lookup(t *testing.T) bool {
	t.Helper()
	found := false
	if err := r.searcher.Discovery.QueryRemote("Resource", "Name", hopValue, func(discovery.Result) { found = true }, nil); err != nil {
		t.Fatal(err)
	}
	r.o.Sched.Run(r.o.Sched.Now() + time.Second)
	return found
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestLookupHopAllocs: a lookup allocates nothing on its way through the
// rendezvous tier, and at the publisher only the response it sends. The
// searcher's rendezvous misses, parks the query behind its scan cost and
// forwards it to the replica; the replica parks it, finds the publisher in
// its index and forwards it there; the publisher finds the advertisement in
// its cache and answers. On a warmed overlay each rendezvous hop costs 0
// objects: the resolver lends its Query, a parked query is a recycled record
// that copies the value it was lent, the routing key and the publishers
// found are on the stack, and the next stage's payload is built in scratch.
// Each used to cost about ten, and then one: the string of a value that is
// not protocol vocabulary, which is now a view of the lent payload. The
// publisher's hop costs the response's buffer alone: the cache is searched
// by that view, under a key it does not build, into an array on the stack.
// It cost 4 while the cache concatenated a key and sorted with sort.Slice.
func TestLookupHopAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := newHopRig(t)
	for i := 0; i < 3; i++ { // warm: the lent Query, the records, the scratch
		if !r.lookup(t) {
			t.Fatal("a warm-up lookup was not answered")
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nearAddr, replicaAddr, pubAddr := r.near.Endpoint.Addr(), r.replica.Endpoint.Addr(), r.o.Edges[0].Endpoint.Addr()
	replicaStage, deliverStage := []byte("<Stage>replica</Stage>"), []byte("<Stage>deliver</Stage>")
	// query sent, forwarded to the replica, forwarded to the publisher, answered
	var marks [4]uint64
	r.o.Net.OnSend = func(from, _ transport.Addr, m *message.Message) {
		q, isQuery := m.Get("res", "Query")
		_, isResponse := m.Get("res", "Response")
		switch {
		case isQuery && from == nearAddr && bytes.Contains(q, replicaStage):
			marks[1] = mallocs()
		case isQuery && from == replicaAddr && bytes.Contains(q, deliverStage):
			marks[2] = mallocs()
		case isResponse && from == pubAddr:
			marks[3] = mallocs()
			r.o.Sched.Halt()
		}
	}
	if _, parked, _ := r.near.Discovery.Tables(); parked == -1 {
		t.Fatal("the searcher's rendezvous never parked a query: the test shows nothing")
	}
	forwards, hits := r.near.Discovery.Stats.ReplicaForwards, r.replica.Discovery.Stats.LocalHits
	const lookups = 5
	for i := 0; i < lookups; i++ {
		marks = [4]uint64{}
		found := false
		if err := r.searcher.Discovery.QueryRemote("Resource", "Name", hopValue, func(discovery.Result) { found = true }, nil); err != nil {
			t.Fatal(err)
		}
		marks[0] = mallocs()
		r.o.Sched.Run(r.o.Sched.Now() + time.Second) // halts at the publisher's response
		if marks[1] == 0 || marks[2] == 0 || marks[3] == 0 {
			t.Fatalf("lookup %d did not take the replica path to the publisher", i)
		}
		near, replica, pub := marks[1]-marks[0], marks[2]-marks[1], marks[3]-marks[2]
		if near != 0 || replica != 0 || pub != 1 {
			t.Errorf("lookup %d: the searcher's rendezvous allocated %d objects, the replica %d, the publisher %d; want 0, 0 and 1", i, near, replica, pub)
		}
		r.o.Sched.Run(r.o.Sched.Now() + time.Second)
		if !found {
			t.Fatalf("lookup %d was not answered", i)
		}
	}
	if r.near.Discovery.Stats.ReplicaForwards != forwards+lookups || r.replica.Discovery.Stats.LocalHits != hits+lookups {
		t.Fatal("the lookups did not go searcher's rendezvous -> replica -> publisher")
	}
}

// TestParkedQueryOwnsItsBytes: a query parked behind its scan cost outlives
// the delivery that lent it its payload, its return address and the value
// read from the payload, so its record copies all three. A replica-stage
// query for a name nobody published parks, then walks the peerview carrying
// its payload and return address verbatim: both must reach the walk byte for
// byte after the lent bytes, and the Query itself, have been overwritten the
// moment the handler returned, as -tags loancheck has the transport do to
// every delivery. A walk hit parks too, with a body read from the walk
// message: after the message has been overwritten, the query forwarded to
// the publisher must still carry the value it was looking for.
func TestParkedQueryOwnsItsBytes(t *testing.T) {
	r := newHopRig(t)
	payload := "<disco:Q><Type>Resource</Type><Attr>Name</Attr><Value>nobody</Value><Stage>replica</Stage></disco:Q>"
	addr := string(r.searcher.Endpoint.Addr())
	lent := []byte(payload + addr)
	q := &resolver.Query{Handler: discovery.HandlerName, QID: 9, Src: r.searcher.ID,
		Payload: lent[:len(payload)], SrcAddr: lent[len(payload):]}
	var walked []*message.Message
	r.o.Net.OnSend = func(_, _ transport.Addr, m *message.Message) {
		if frame, ok := m.Get("walk", "Body"); ok {
			body, err := message.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			walked = append(walked, body)
		}
	}
	r.near.Discovery.HandleQuery(q)
	if _, parked, _ := r.near.Discovery.Tables(); parked != 1 {
		t.Fatalf("%d queries parked, want 1: the test shows nothing", parked)
	}
	for i := range lent {
		lent[i] = 0xDB
	}
	*q = resolver.Query{}
	r.o.Sched.Run(r.o.Sched.Now() + time.Second)
	if len(walked) == 0 {
		t.Fatal("the parked query did not walk")
	}
	for _, m := range walked {
		if got := m.GetString("disco", "Payload"); got != payload {
			t.Fatalf("walked payload %q, want %q", got, payload)
		}
		if got := m.GetString("disco", "SrcAddr"); got != addr {
			t.Fatalf("walked return address %q, want %q", got, addr)
		}
	}

	// The walk hit: the replica indexes the resource looked up, and reads the
	// walked message in place, as the walker hands it over.
	walkPayload := "<disco:Q><Type>Resource</Type><Attr>Name</Attr><Value>" + hopValue + "</Value><Stage>replica</Stage></disco:Q>"
	wm := message.New()
	for _, el := range [][2]string{{"QID", "77"}, {"Src", r.searcher.ID.String()}, {"SrcAddr", addr},
		{"Hops", "0"}, {"Key", hopKey}, {"Payload", walkPayload}} {
		wm.AddString("disco", el[0], el[1])
	}
	frame := wm.Marshal()
	var body message.Message
	if err := body.UnmarshalAlias(frame); err != nil {
		t.Fatal(err)
	}
	var forwarded []string
	replicaAddr := r.replica.Endpoint.Addr()
	r.o.Net.OnSend = func(from, _ transport.Addr, m *message.Message) {
		if q, ok := m.Get("res", "Query"); ok && from == replicaAddr {
			forwarded = append(forwarded, string(q))
		}
	}
	if !r.replica.Discovery.HandleWalk(r.searcher.ID, rendezvous.Up, &body) {
		t.Fatal("the walk goes on past a hit")
	}
	if _, parked, _ := r.replica.Discovery.Tables(); parked != 1 || len(forwarded) != 0 {
		t.Fatalf("%d queries parked, %d forwarded; want 1 and 0: the test shows nothing", parked, len(forwarded))
	}
	for i := range frame {
		frame[i] = 0xDB
	}
	r.o.Sched.Run(r.o.Sched.Now() + time.Second)
	want := strings.Replace(walkPayload, "replica", "deliver", 1)
	if len(forwarded) != 1 || forwarded[0] != want {
		t.Fatalf("forwarded to the publisher %q, want [%q]", forwarded, want)
	}
}

// TestStopCancelsParkedQueries: stopping a rendezvous while queries are
// parked behind its scan cost cancels them. None is routed afterwards, the
// service counts none parked, and the node's env owns no timer, so a stopped
// node is silent.
func TestStopCancelsParkedQueries(t *testing.T) {
	r := newHopRig(t)
	for i := 0; i < 3; i++ {
		if err := r.searcher.Discovery.QueryRemote("Resource", "Name", hopValue, func(discovery.Result) {}, nil); err != nil {
			t.Fatal(err)
		}
	}
	parked := 0
	for deadline := r.o.Sched.Now() + time.Second; parked <= 0 && r.o.Sched.Now() < deadline; {
		r.o.Sched.Run(r.o.Sched.Now() + time.Microsecond)
		_, parked, _ = r.near.Discovery.Tables()
	}
	if parked <= 0 {
		t.Fatal("no query parked: the test shows nothing")
	}
	r.near.Stop()
	sent := 0
	r.o.Net.OnSend = func(from, _ transport.Addr, _ *message.Message) {
		if from == r.near.Endpoint.Addr() {
			sent++
		}
	}
	r.o.Sched.Run(r.o.Sched.Now() + time.Minute)
	if _, parked, _ = r.near.Discovery.Tables(); parked != 0 || sent != 0 {
		t.Fatalf("after Stop: %d queries parked, %d messages sent", parked, sent)
	}
	if n := r.near.Env.(interface{ Pending() int }).Pending(); n != 0 {
		t.Fatalf("the stopped rendezvous' env owns %d timers", n)
	}
}
