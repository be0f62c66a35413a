package endpoint

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/transport"
)

// wireOf builds a wire message by hand: a payload element, then the given
// (name, value) pairs as ep: elements.
func wireOf(pairs ...string) *message.Message {
	m := body("x")
	for i := 0; i < len(pairs); i += 2 {
		m.AddString(ns, pairs[i], pairs[i+1])
	}
	return m
}

// TestEnvelopeOutcomes pins what dispatch does with every shape of envelope
// a peer can put on the wire: deliver or drop, and never send. b serves "svc"
// and routes to c, so a transit message (addressed to c) could be forwarded:
// it is dropped.
func TestEnvelopeOutcomes(t *testing.T) {
	type outcome struct{ delivered, sent, drops int }
	var (
		deliver = outcome{delivered: 1}
		drop    = outcome{drops: 1}
	)
	_, net, a, b, c := setup(t)
	aID, bID, cID := a.ep.IDString(), b.ep.IDString(), c.ep.IDString()
	aAddr := string(a.tr.Addr())
	ghost := ids.FromName(ids.KindPeer, "ghost").String()
	cases := []struct {
		name string
		wire *message.Message
		want outcome
	}{
		{"well formed", wireOf(elemSrc, aID, elemDst, bID, elemSvc, "svc", elemSrcAddr, aAddr, elemTTL, "8"), deliver},
		{"no envelope", body("raw"), drop},
		{"Src missing", wireOf(elemDst, bID, elemSvc, "svc", elemTTL, "8"), drop},
		{"Src garbled", wireOf(elemSrc, "urn:jxta:uuid-zz", elemDst, bID, elemSvc, "svc", elemTTL, "8"), drop},
		{"Src first of two wins", wireOf(elemSrc, "junk", elemSrc, aID, elemDst, bID, elemSvc, "svc", elemTTL, "8"), drop},
		{"Dst missing", wireOf(elemSrc, aID, elemSvc, "svc", elemTTL, "8"), drop},
		{"Dst garbled", wireOf(elemSrc, aID, elemDst, bID[:20], elemSvc, "svc", elemTTL, "8"), drop},
		{"Dst nil (hello)", wireOf(elemSrc, aID, elemDst, ids.Nil.String(), elemSvc, "svc", elemTTL, "8"), deliver},
		{"Svc missing", wireOf(elemSrc, aID, elemDst, bID, elemTTL, "8"), drop},
		{"Svc empty", wireOf(elemSrc, aID, elemDst, bID, elemSvc, "", elemTTL, "8"), drop},
		{"Svc unknown", wireOf(elemSrc, aID, elemDst, bID, elemSvc, "nosuch", elemTTL, "8"), drop},
		{"SrcAddr and TTL missing, local", wireOf(elemSrc, aID, elemDst, bID, elemSvc, "svc"), deliver},
		{"transit", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc", elemTTL, "8"), drop},
		{"transit, unknown Svc", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "nosuch", elemTTL, "2"), drop},
		{"transit, TTL missing", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc"), drop},
		{"transit, TTL not a number", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc", elemTTL, "x8"), drop},
		{"transit, TTL empty", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc", elemTTL, ""), drop},
		{"transit, TTL negative", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc", elemTTL, "-3"), drop},
		{"transit, TTL 0", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc", elemTTL, "0"), drop},
		{"transit, TTL 1", wireOf(elemSrc, aID, elemDst, cID, elemSvc, "svc", elemTTL, "1"), drop},
		{"transit, no route", wireOf(elemSrc, aID, elemDst, ghost, elemSvc, "svc", elemTTL, "8"), drop},
	}
	delivered, sent := 0, 0
	b.ep.Register("svc", func(ids.ID, *message.Message) { delivered++ })
	b.ep.AddRoute(c.id, c.tr.Addr())
	net.OnSend = func(transport.Addr, transport.Addr, *message.Message) { sent++ }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := outcome{delivered, sent, int(b.ep.Drops)}
			b.ep.dispatch(a.tr.Addr(), tc.wire)
			got := outcome{delivered - before.delivered, sent - before.sent, int(b.ep.Drops) - before.drops}
			if got != tc.want {
				t.Fatalf("%s: got %+v, want %+v", tc.wire, got, tc.want)
			}
		})
	}
}

// TestInboundCannotRewriteRoutes: a route changes only through the envelope
// of its own peer's messages. a sends b a JXTA endpoint-routing response
// that names c at a's address; b serves no such protocol, so its route to c
// stays where it was.
func TestInboundCannotRewriteRoutes(t *testing.T) {
	sched, _, a, b, c := setup(t)
	a.ep.AddRoute(b.id, b.tr.Addr())
	b.ep.AddRoute(c.id, c.tr.Addr())
	rsp := message.New().
		AddString(ns, "RouteResponse", "<jxta:RA><DstPID>"+c.ep.IDString()+"</DstPID></jxta:RA>").
		AddString(ns, "RouteTarget", string(a.tr.Addr()))
	if err := a.ep.Send(b.id, "erp", rsp); err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if addr, ok := b.ep.RouteTo(c.id); !ok || addr != c.tr.Addr() {
		t.Fatalf("b's route to c is %q, %v after a's route response; want %q", addr, ok, c.tr.Addr())
	}
	if b.ep.Drops != 1 {
		t.Fatalf("b.Drops = %d, want 1", b.ep.Drops)
	}
}

// TestReturnRouteRewrittenOnlyWhenChanged: a peer heard from again at the
// same address keeps its stored route; a new address replaces it.
func TestReturnRouteRewrittenOnlyWhenChanged(t *testing.T) {
	_, _, a, b, _ := setup(t)
	b.ep.Register("svc", func(ids.ID, *message.Message) {})
	from := func(addr string) *message.Message {
		return wireOf(elemSrc, a.ep.IDString(), elemDst, b.ep.IDString(), elemSvc, "svc", elemSrcAddr, addr, elemTTL, "8")
	}
	b.ep.dispatch(a.tr.Addr(), from("sim://rennes/a"))
	first, _ := b.ep.RouteTo(a.id)
	b.ep.dispatch(a.tr.Addr(), from("sim://rennes/a"))
	if again, _ := b.ep.RouteTo(a.id); again != first {
		t.Fatalf("route changed from %q to %q", first, again)
	}
	b.ep.dispatch(a.tr.Addr(), from("sim://lyon/a"))
	if moved, _ := b.ep.RouteTo(a.id); moved != "sim://lyon/a" {
		t.Fatalf("route is %q after the peer moved", moved)
	}
}

// TestUnknownServicesDoNotGrowState: service names come off the wire. A peer
// inventing a new one per message must not mint counts or series.
func TestUnknownServicesDoNotGrowState(t *testing.T) {
	_, _, a, b, _ := setup(t)
	reg := metrics.NewRegistry()
	b.ep.Collect(reg)
	b.ep.Register("svc", func(ids.ID, *message.Message) {})
	send := func(svc string) {
		b.ep.dispatch(a.tr.Addr(), wireOf(elemSrc, a.ep.IDString(), elemDst, b.ep.IDString(), elemSvc, svc, elemTTL, "8"))
	}
	send("svc")
	send("made-up")
	cached, series, drops := len(b.ep.slots), len(reg.Snapshot()), b.ep.Drops
	for i := 0; i < 10000; i++ {
		send(fmt.Sprintf("made-up-%d", i))
	}
	if len(b.ep.slots) != cached || len(reg.Snapshot()) != series {
		t.Fatalf("10,000 unknown services grew the service slots %d -> %d and the registry %d -> %d series",
			cached, len(b.ep.slots), series, len(reg.Snapshot()))
	}
	if b.ep.Drops != drops+10000 {
		t.Fatalf("Drops rose by %d, want 10000", b.ep.Drops-drops)
	}
	if got := reg.Snapshot()[`jxta_endpoint_rx_messages_total{service="other"}`]; got != 10001 {
		t.Fatalf("rx{service=%q} = %v, want 10001", otherService, got)
	}
}

// TestSendDeliverAllocs gates the per-message cost of the endpoint over the
// simulated transport: nothing. The wire message is built in a pooled
// message.Out, the transport copies it into a recycled record, and the
// envelope is read in place.
func TestSendDeliverAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sched, _, a, b, _ := setup(t)
	b.ep.Register("svc", func(ids.ID, *message.Message) {})
	a.ep.AddRoute(b.id, b.tr.Addr())
	m := body("x")
	roundTrip := func() {
		if err := a.ep.Send(b.id, "svc", m); err != nil {
			t.Fatal(err)
		}
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
	roundTrip() // learn the return route, fill pools
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Errorf("send+deliver costs %.1f allocations, want 0", got)
	}
	wire := wireOf(elemSrc, a.ep.IDString(), elemDst, b.ep.IDString(), elemSvc, "svc", elemSrcAddr, string(a.tr.Addr()), elemTTL, "8")
	if got := testing.AllocsPerRun(200, func() { b.ep.dispatch(a.tr.Addr(), wire) }); got != 0 {
		t.Errorf("dispatch on the steady-state path costs %.1f allocations, want 0", got)
	}
}

// TestLearnRouteFromTransportAllocs: a message whose envelope names the
// address the transport delivered it from teaches its route without copying
// the address: the route keeps the transport's string, 0 allocations (1 when
// the route held a copy of the envelope's bytes). One whose envelope names
// another address still teaches that one, as TestInboundCannotRewriteRoutes
// asks: only the envelope adds a route.
func TestLearnRouteFromTransportAllocs(t *testing.T) {
	_, _, a, b, _ := setup(t)
	b.ep.Register("svc", func(ids.ID, *message.Message) {})
	from := a.tr.Addr()
	wire := wireOf(elemSrc, a.ep.IDString(), elemDst, b.ep.IDString(), elemSvc, "svc", elemSrcAddr, string(from), elemTTL, "8")
	learn := func() {
		b.ep.AddRoute(a.id, "sim://lyon/a") // a route the message changes
		b.ep.dispatch(from, wire)
	}
	learn()
	if got := testing.AllocsPerRun(200, learn); got != 0 {
		t.Errorf("learning a route from the transport's address costs %.1f allocations, want 0", got)
	}
	if route, _ := b.ep.RouteTo(a.id); unsafe.StringData(string(route)) != unsafe.StringData(string(from)) {
		t.Fatalf("route %q is not the transport's string %q", route, from)
	}
	b.ep.dispatch(from, wireOf(elemSrc, a.ep.IDString(), elemDst, b.ep.IDString(), elemSvc, "svc", elemSrcAddr, "sim://grenoble/a", elemTTL, "8"))
	if route, _ := b.ep.RouteTo(a.id); route != "sim://grenoble/a" {
		t.Fatalf("route %q after a message naming sim://grenoble/a from %q", route, from)
	}
}

// TestSendFromInsideHandler: each receiver's handler answers from inside
// itself, eight times over, so the pooled wire buffers of one send are
// reused by the next before the first delivery's loan has ended. Every
// message must arrive with its own body and its own envelope.
func TestSendFromInsideHandler(t *testing.T) {
	sched, _, ra, rb, _ := setup(t)
	a, b := ra.ep, rb.ep
	a.AddRoute(b.ID(), b.Addr())
	var log []string
	bounce := func(self, peer *Endpoint) Handler {
		return func(src ids.ID, m *message.Message) {
			text := m.GetString("app", "body")
			log = append(log, text)
			if !src.Equal(peer.ID()) {
				t.Errorf("%q arrived from %s", text, src.Short())
			}
			if len(text) < 8 {
				if err := self.Send(src, "svc", body(text+"+")); err != nil {
					t.Error(err)
				}
			}
		}
	}
	a.Register("svc", bounce(a, b))
	b.Register("svc", bounce(b, a))
	if err := a.Send(b.ID(), "svc", body("+")); err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if got, want := strings.Join(log, " "), "+ ++ +++ ++++ +++++ ++++++ +++++++ ++++++++"; got != want {
		t.Fatalf("bodies arrived as %q, want %q", got, want)
	}
}

// FuzzDispatch feeds dispatch arbitrary envelope bytes: it must not panic,
// must not transmit anything, may add or change no route but the one to the
// envelope's own Src, and must keep no reference to the input — the route it
// learns is compared with a private copy after the input has been
// overwritten.
func FuzzDispatch(f *testing.F) {
	id := ids.FromName(ids.KindPeer, "a").String()
	f.Add([]byte(id), []byte(id), []byte("svc"), []byte("sim://rennes/a"), []byte("8"))
	f.Add([]byte("urn:jxta:nil"), []byte("urn:jxta:nil"), []byte(""), []byte(""), []byte("-1"))
	f.Add([]byte("urn:jxta:uuid-00"), []byte(id[:30]), []byte("nosuch"), []byte("x"), []byte("99999999999999999999"))
	f.Fuzz(func(t *testing.T, src, dst, svc, srcAddr, ttl []byte) {
		_, net, _, b, c := setup(t)
		b.ep.Register("svc", func(ids.ID, *message.Message) {})
		b.ep.AddRoute(c.id, c.tr.Addr())
		sent := 0
		net.OnSend = func(transport.Addr, transport.Addr, *message.Message) { sent++ }
		wire := message.New().
			Add(ns, elemSrc, src).Add(ns, elemDst, dst).Add(ns, elemSvc, svc).
			Add(ns, elemSrcAddr, srcAddr).Add(ns, elemTTL, ttl)
		srcID, srcErr := ids.ParseBytes(src)
		b.ep.dispatch("sim://rennes/fuzz", wire)
		if sent != 0 {
			t.Fatalf("dispatch made b transmit %d messages", sent)
		}
		for _, id := range b.ep.KnownPeers() {
			if srcErr == nil && id.Equal(srcID) {
				continue
			}
			if addr, _ := b.ep.RouteTo(id); !id.Equal(c.id) || addr != c.tr.Addr() {
				t.Fatalf("dispatch from %q set the route to %s to %q", src, id.Short(), addr)
			}
		}
		if _, ok := b.ep.RouteTo(c.id); !ok && (srcErr != nil || !srcID.Equal(c.id)) {
			t.Fatal("dispatch dropped the route to c")
		}

		type route struct {
			id   ids.ID
			addr string
		}
		var kept []route
		for _, id := range b.ep.KnownPeers() {
			addr, _ := b.ep.RouteTo(id)
			kept = append(kept, route{id, strings.Clone(string(addr))})
		}
		for _, in := range [][]byte{src, dst, svc, srcAddr, ttl} {
			for i := range in {
				in[i] ^= 0xff
			}
		}
		for _, r := range kept {
			if addr, _ := b.ep.RouteTo(r.id); string(addr) != r.addr {
				t.Fatalf("route to %s changed from %q to %q when the input was overwritten", r.id.Short(), r.addr, addr)
			}
		}
		for _, s := range b.ep.slots {
			switch s.name {
			case helloService, "svc", otherService:
			default:
				t.Fatalf("slot minted for %q", s.name)
			}
			if s.n != nil && s.name != "svc" && s.name != otherService {
				t.Fatalf("counts minted for %q", s.name)
			}
		}
	})
}
