package discovery_test

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"jxta/internal/advertisement"
	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/document"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/topology"
	"jxta/internal/transport"
)

// keyLedger is the delta-push ledger the service kept before it kept the
// debt instead — a set of every key ever pushed to the current rendezvous —
// as a model: given whether a send would go through, it says which tuples
// each operation pushes. The service is held to it, message for message.
type keyLedger struct {
	pushed map[string]bool
	cache  interface {
		LocalAdvertisements() []advertisement.Advertisement
	}
	advLifetime time.Duration
}

func tupleText(key string, lifetime time.Duration) string {
	return fmt.Sprintf("%s|%d", key, lifetime)
}

func (l *keyLedger) push(tuples, keys []string, sendOK bool) []string {
	if len(tuples) == 0 || !sendOK {
		return nil
	}
	if l.pushed == nil {
		l.pushed = map[string]bool{}
	}
	for _, key := range keys {
		l.pushed[key] = true
	}
	return tuples
}

func (l *keyLedger) publish(adv advertisement.Advertisement, lifetime time.Duration, sendOK bool) []string {
	var tuples, keys []string
	for _, f := range advertisement.AppendIndexFields(nil, adv) {
		keys = append(keys, f.Key(adv.Type()))
		tuples = append(tuples, tupleText(f.Key(adv.Type()), lifetime))
	}
	return l.push(tuples, keys, sendOK)
}

func (l *keyLedger) tick(sendOK bool) []string {
	var tuples, keys []string
	for _, adv := range l.cache.LocalAdvertisements() {
		for _, f := range advertisement.AppendIndexFields(nil, adv) {
			if key := f.Key(adv.Type()); !l.pushed[key] {
				keys = append(keys, key)
				tuples = append(tuples, tupleText(key, l.advLifetime))
			}
		}
	}
	return l.push(tuples, keys, sendOK)
}

func (l *keyLedger) forgetAll() { l.pushed = nil } // fresh lease, Promote, Reset

// TestPushLedgerMatchesKeyLedger: equivalence (iii). Through publishing
// before any lease, a send that fails, a reset, a new lease and a promotion,
// the service pushes the messages the key ledger pushed — with one stated
// exception, where two advertisements share a key.
func TestPushLedgerMatchesKeyLedger(t *testing.T) {
	o, err := deploy.Build(deploy.Spec{Seed: 5, NumRdv: 3, Topology: topology.Chain})
	if err != nil {
		t.Fatal(err)
	}
	o.StartAll()
	o.Sched.Run(10 * time.Minute)
	tr, err := o.Net.Attach("pub", netmodel.Rennes)
	if err != nil {
		t.Fatal(err)
	}
	pub := node.New(o.Sched.NewEnv("pub"), tr, node.Config{
		Name: "pub", Role: node.Edge, AdvStore: o.AdvStore,
		Seeds: []peerview.Seed{o.Rdvs[0].Seed(), o.Rdvs[1].Seed()},
	})
	model := &keyLedger{cache: pub.Cache, advLifetime: discovery.TupleLifetime}

	// Every SRDI push the publisher sends, as the tuples it carries.
	var sent [][]string
	o.Net.OnSend = func(from, _ transport.Addr, m *message.Message) {
		if from != tr.Addr() || endpoint.ServiceOf(m) != discovery.SRDIService {
			return
		}
		var tuples []string
		for _, el := range m.Elements() {
			if el.Namespace == "srdi" && el.Name == "Tuple" {
				doc, err := document.Unmarshal(el.Data)
				if err != nil {
					t.Errorf("pushed a tuple that does not decode: %v", err)
					continue
				}
				tuples = append(tuples, doc.ChildText("Key")+"|"+doc.ChildText("Life"))
			}
		}
		sent = append(sent, tuples)
	}
	sendOK := func() bool {
		rdv, connected := pub.Rendezvous.ConnectedRdv()
		_, routed := pub.Endpoint.RouteTo(rdv)
		return connected && routed
	}
	// expect compares what was sent since the last call with the model's
	// non-empty pushes.
	expect := func(step string, want ...[]string) {
		t.Helper()
		want = slices.DeleteFunc(want, func(m []string) bool { return len(m) == 0 })
		if !slices.EqualFunc(sent, want, slices.Equal[[]string]) {
			t.Fatalf("%s:\n sent %q\n want %q", step, sent, want)
		}
		sent = nil
	}
	unpushed := func(step string, want int) {
		t.Helper()
		if got, _, _ := pub.Discovery.Tables(); got != want {
			t.Fatalf("%s: the service owes %d advertisements, want %d (-1: holds no ledger)", step, got, want)
		}
	}
	tick := func() { o.Sched.Run(o.Sched.Now() + discovery.PushPeriod) }
	peer := func(name string) advertisement.Advertisement {
		return &advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, name), Name: name}
	}
	resource := func(id, name string) advertisement.Advertisement {
		return &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, id), Name: name,
			Attrs: []advertisement.IndexField{{Attr: "RAM", Value: "4096"}}}
	}

	// Publish before any lease: nothing can be sent, and the first lease
	// pushes everything, once.
	a := peer("a")
	pub.Discovery.Publish(a, time.Hour)
	expect("publish before any lease", model.publish(a, time.Hour, sendOK()))
	unpushed("publish before any lease", 1)
	pub.Start()
	o.Sched.Run(o.Sched.Now() + 10*time.Second)
	if !sendOK() {
		t.Fatal("publisher got no lease")
	}
	model.forgetAll()
	expect("first lease", model.tick(true))
	unpushed("first lease", -1)
	tick()
	expect("tick after the first lease", model.tick(sendOK()))

	// Publish while connected: pushed at once with the caller's lifetime.
	b := resource("b", "b")
	pub.Discovery.Publish(b, 3*time.Hour)
	expect("publish while connected", model.publish(b, 3*time.Hour, sendOK()))
	unpushed("publish while connected", -1)

	// Publish with a failing send (the lease holds, the route is gone):
	// retried on every tick, with the default lifetime, until it goes through.
	rdv, _ := pub.Rendezvous.ConnectedRdv()
	addr, _ := pub.Endpoint.RouteTo(rdv)
	pub.Endpoint.DropRoute(rdv)
	c := peer("c")
	pub.Discovery.Publish(c, time.Hour)
	expect("publish with a failing send", model.publish(c, time.Hour, sendOK()))
	unpushed("publish with a failing send", 1)
	tick()
	expect("tick while the send still fails", model.tick(sendOK()))
	unpushed("tick while the send still fails", 1)
	pub.Endpoint.AddRoute(rdv, addr)
	tick()
	expect("tick once the send goes through", model.tick(sendOK()))
	unpushed("tick once the send goes through", -1)
	tick()
	expect("tick with nothing owed", model.tick(sendOK()))

	// The corner that differs. Two advertisements share a key; the first is
	// pushed, the second's send fails. The key ledger called the shared key
	// pushed and never sent it for the second advertisement. The service
	// owes the second advertisement, not its keys, and pushes all of its
	// tuples on the next tick: one redundant tuple — same key, same
	// publisher, so the index entry it refreshes is the one already there.
	d1, d2 := resource("d1", "shared"), resource("d2", "shared")
	pub.Discovery.Publish(d1, time.Hour)
	expect("first of two sharing their keys", model.publish(d1, time.Hour, sendOK()))
	pub.Endpoint.DropRoute(rdv)
	pub.Discovery.Publish(d2, time.Hour)
	expect("second of two, send failing", model.publish(d2, time.Hour, sendOK()))
	pub.Endpoint.AddRoute(rdv, addr)
	tick()
	if got := model.tick(sendOK()); got != nil {
		t.Fatalf("the key ledger pushes %q here: the scenario no longer reaches the corner", got)
	}
	life := discovery.TupleLifetime
	expect("second of two, retried", []string{tupleText("ResourceNameshared", life), tupleText("ResourceRAM4096", life)})
	unpushed("second of two, retried", -1)
	tick()
	expect("tick after the corner", model.tick(sendOK()))

	// Reset: everything is owed again and goes out on the next tick.
	pub.Discovery.Reset()
	model.forgetAll()
	unpushed("reset", 5)
	tick()
	expect("tick after Reset", model.tick(sendOK()))
	unpushed("tick after Reset", -1)

	// A new lease: the rendezvous dies, the edge fails over to its second
	// seed and pushes everything, once.
	killed := 0
	if rdv.Equal(o.Rdvs[1].ID) {
		killed = 1
	}
	o.KillRdv(killed)
	o.Sched.Run(o.Sched.Now() + 45*time.Minute)
	if now, ok := pub.Rendezvous.ConnectedRdv(); !ok || now.Equal(rdv) {
		t.Fatal("publisher did not fail over")
	}
	model.forgetAll()
	expect("new lease", model.tick(true))
	unpushed("new lease", -1)

	// Promotion: the peer becomes its own rendezvous and indexes everything.
	o.Net.OnSend = nil // from here its SRDI traffic is replication, tuple by tuple
	pub.PromoteToRendezvous()
	model.forgetAll()
	want := model.tick(true)
	slices.Sort(want)
	if got := pub.Discovery.Index().Size(); got != len(slices.Compact(want)) {
		t.Fatalf("promoted peer indexed %d tuples, want %d", got, len(slices.Compact(want)))
	}
	unpushed("promotion", -1)
}

// TestPushTickSteadyState: a publisher whose pushes have all arrived does
// nothing on a push tick — no allocation, so in particular no walk over the
// cache (LocalAdvertisements allocates its result) — and the service has not
// grown to pay for that: a 248-byte Service would land in the 256-byte size
// class and cost every edge 16 bytes.
func TestPushTickSteadyState(t *testing.T) {
	o, pub, _ := buildOverlay(t, 3, 23, 10*time.Minute)
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("res-%d", i)
		pub.Discovery.Publish(&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, name), Name: name}, 0)
	}
	o.Sched.Run(o.Sched.Now() + time.Minute)
	if owed, _, _ := pub.Discovery.Tables(); owed != -1 {
		t.Fatalf("publisher still owes %d advertisements", owed)
	}
	if len(pub.Cache.LocalAdvertisements()) != 25 {
		t.Fatal("publisher's cache does not hold its advertisements")
	}
	if n := testing.AllocsPerRun(100, pub.Discovery.PushTick); n != 0 {
		t.Fatalf("a push tick with nothing owed costs %.0f allocations, want 0", n)
	}
	if size := unsafe.Sizeof(discovery.Service{}); size > 240 {
		t.Fatalf("discovery.Service is %d bytes, want <= 240 (the 240-byte size class)", size)
	}
}
