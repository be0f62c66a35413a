package transport

import (
	"sync"
	"testing"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
)

func msgOf(s string) *message.Message {
	return message.New().AddString("t", "body", s)
}

// --- Sim transport ---

func newSimPair(t *testing.T, model *netmodel.Model) (*simnet.Scheduler, *Network, *Sim, *Sim) {
	t.Helper()
	sched := simnet.NewScheduler(1)
	net := NewNetwork(sched, model)
	a, err := net.Attach("a", netmodel.Rennes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b", netmodel.Sophia)
	if err != nil {
		t.Fatal(err)
	}
	return sched, net, a, b
}

func TestSimDelivery(t *testing.T) {
	sched, _, a, b := newSimPair(t, netmodel.Uniform(3*time.Millisecond))
	var got string
	var from Addr
	var at time.Duration
	b.SetHandler(func(src Addr, m *message.Message) {
		got = m.GetString("t", "body")
		from = src
		at = sched.Now()
	})
	if err := a.Send(b.Addr(), msgOf("hello")); err != nil {
		t.Fatal(err)
	}
	sched.Run(time.Second)
	if got != "hello" || from != a.Addr() {
		t.Fatalf("delivery failed: got=%q from=%s", got, from)
	}
	if at != 3*time.Millisecond {
		t.Fatalf("delivered at %v, want 3ms (uniform model, no stack service)", at)
	}
}

func TestSimAddrFormat(t *testing.T) {
	_, _, a, _ := newSimPair(t, netmodel.Uniform(time.Millisecond))
	if a.Addr() != "sim://rennes/a" {
		t.Fatalf("addr = %s", a.Addr())
	}
	if a.site != netmodel.Rennes {
		t.Fatalf("site = %v", a.site)
	}
}

func TestSimDuplicateAttach(t *testing.T) {
	sched := simnet.NewScheduler(1)
	net := NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	if _, err := net.Attach("x", netmodel.Lyon); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("x", netmodel.Lyon); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestSimStackServiceQueueing(t *testing.T) {
	model := netmodel.Uniform(time.Millisecond)
	model.StackService = 10 * time.Millisecond
	sched, _, a, b := newSimPair(t, model)
	var deliveries []time.Duration
	b.SetHandler(func(_ Addr, _ *message.Message) {
		deliveries = append(deliveries, sched.Now())
	})
	// Three messages sent back-to-back arrive at ~1ms and then serialize
	// behind the 10ms stack service: ~11, ~21, ~31 ms.
	for i := 0; i < 3; i++ {
		a.Send(b.Addr(), msgOf("x"))
	}
	sched.Run(time.Second)
	if len(deliveries) != 3 {
		t.Fatalf("got %d deliveries", len(deliveries))
	}
	want := []time.Duration{11 * time.Millisecond, 21 * time.Millisecond, 31 * time.Millisecond}
	for i, d := range deliveries {
		if d != want[i] {
			t.Fatalf("delivery %d at %v, want %v (FIFO service queue)", i, d, want[i])
		}
	}
}

func TestSimBusyDelaysService(t *testing.T) {
	model := netmodel.Uniform(time.Millisecond)
	sched, _, a, b := newSimPair(t, model)
	var at time.Duration
	b.SetHandler(func(_ Addr, _ *message.Message) { at = sched.Now() })
	b.Busy(50 * time.Millisecond) // e.g. scanning a large SRDI index
	a.Send(b.Addr(), msgOf("x"))
	sched.Run(time.Second)
	if at != 50*time.Millisecond {
		t.Fatalf("delivered at %v, want 50ms (behind busy period)", at)
	}
}

func TestSimSendToDetachedPeerDropped(t *testing.T) {
	sched, net, a, b := newSimPair(t, netmodel.Uniform(time.Millisecond))
	delivered := false
	b.SetHandler(func(_ Addr, _ *message.Message) { delivered = true })
	bAddr := b.Addr()
	b.Close()
	if err := a.Send(bAddr, msgOf("x")); err != nil {
		t.Fatalf("send to departed peer errored synchronously: %v", err)
	}
	sched.Run(time.Second)
	if delivered {
		t.Fatal("message delivered to closed endpoint")
	}
	if net.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", net.Stats().Dropped)
	}
}

func TestSimCrashWhileQueuedDrops(t *testing.T) {
	model := netmodel.Uniform(time.Millisecond)
	model.StackService = 20 * time.Millisecond
	sched, net, a, b := newSimPair(t, model)
	delivered := 0
	b.SetHandler(func(_ Addr, _ *message.Message) { delivered++ })
	a.Send(b.Addr(), msgOf("1"))
	a.Send(b.Addr(), msgOf("2"))
	// Crash b at 25ms: first message (served at 21ms) lands, second
	// (due 41ms) must be dropped.
	sched.After(25*time.Millisecond, func() { b.Close() })
	sched.Run(time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if net.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", net.Stats().Dropped)
	}
}

func TestSimLossInjection(t *testing.T) {
	model := netmodel.Uniform(time.Millisecond)
	model.LossRate = 1.0
	sched, net, a, b := newSimPair(t, model)
	delivered := false
	b.SetHandler(func(_ Addr, _ *message.Message) { delivered = true })
	a.Send(b.Addr(), msgOf("x"))
	sched.Run(time.Second)
	if delivered {
		t.Fatal("message survived 100% loss")
	}
	if net.Stats().Dropped != 1 || net.Stats().Messages != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

func TestSimStatsAndHook(t *testing.T) {
	sched, net, a, b := newSimPair(t, netmodel.Uniform(time.Millisecond))
	b.SetHandler(func(_ Addr, _ *message.Message) {})
	var hooked int
	net.OnSend = func(from, to Addr, m *message.Message) { hooked++ }
	for i := 0; i < 5; i++ {
		a.Send(b.Addr(), msgOf("x"))
	}
	sched.Run(time.Second)
	st := net.Stats()
	if st.Messages != 5 || hooked != 5 || st.Bytes == 0 {
		t.Fatalf("stats = %+v hooked = %d", st, hooked)
	}
}

func TestSimSendAfterClose(t *testing.T) {
	_, _, a, b := newSimPair(t, netmodel.Uniform(time.Millisecond))
	a.Close()
	if err := a.Send(b.Addr(), msgOf("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSiteOfUnattachedAddress(t *testing.T) {
	sched := simnet.NewScheduler(1)
	net := NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	sh := &net.shards[0]
	if sh.siteOf("sim://toulouse/ghost") != netmodel.Toulouse {
		t.Fatal("siteOf failed to parse unattached sim address")
	}
	if sh.siteOf("bogus") != netmodel.Rennes {
		t.Fatal("siteOf fallback changed")
	}
	// Second resolution comes from the memoized cache.
	if sh.siteOf("sim://toulouse/ghost") != netmodel.Toulouse {
		t.Fatal("siteOf cache returned a different site")
	}
	if len(sh.siteCache) != 2 {
		t.Fatalf("siteCache has %d entries, want 2", len(sh.siteCache))
	}
}

func TestSimGrid5000LatencyOrdering(t *testing.T) {
	// A message within Rennes must arrive before one crossing to Sophia.
	sched := simnet.NewScheduler(1)
	net := NewNetwork(sched, netmodel.Grid5000())
	src, _ := net.Attach("src", netmodel.Rennes)
	local, _ := net.Attach("local", netmodel.Rennes)
	remote, _ := net.Attach("remote", netmodel.Sophia)
	var localAt, remoteAt time.Duration
	local.SetHandler(func(_ Addr, _ *message.Message) { localAt = sched.Now() })
	remote.SetHandler(func(_ Addr, _ *message.Message) { remoteAt = sched.Now() })
	src.Send(local.Addr(), msgOf("x"))
	src.Send(remote.Addr(), msgOf("x"))
	sched.Run(time.Second)
	if localAt == 0 || remoteAt == 0 {
		t.Fatal("messages not delivered")
	}
	if localAt >= remoteAt {
		t.Fatalf("LAN delivery (%v) not faster than WAN (%v)", localAt, remoteAt)
	}
}

// --- TCP ---

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	gotB := make(chan string, 1)
	b.SetHandler(func(src Addr, m *message.Message) {
		if src != a.Addr() {
			t.Errorf("inbound src = %s, want %s", src, a.Addr())
		}
		gotB <- m.GetString("t", "body")
		// Reply over the same logical link (reuses the accepted conn).
		b.Send(src, msgOf("pong"))
	})
	gotA := make(chan string, 1)
	a.SetHandler(func(src Addr, m *message.Message) { gotA <- m.GetString("t", "body") })

	if err := a.Send(b.Addr(), msgOf("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-gotB:
		if s != "ping" {
			t.Fatalf("b got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never received")
	}
	select {
	case s := <-gotA:
		if s != "pong" {
			t.Fatalf("a got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a never received reply")
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0")
	defer a.Close()
	b, _ := ListenTCP("127.0.0.1:0")
	defer b.Close()
	const n = 100
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	b.SetHandler(func(_ Addr, m *message.Message) {
		mu.Lock()
		got = append(got, m.GetString("t", "body"))
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), msgOf(string(rune('A'+i%26)))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d messages arrived", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != string(rune('A'+i%26)) {
			t.Fatalf("message %d out of order: %q", i, s)
		}
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0")
	b, _ := ListenTCP("127.0.0.1:0")
	defer b.Close()
	a.Close()
	if err := a.Send(b.Addr(), msgOf("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPBadAddress(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0")
	defer a.Close()
	if err := a.Send("sim://rennes/x", msgOf("x")); err == nil {
		t.Fatal("send to non-tcp address succeeded")
	}
	if err := a.Send("tcp://127.0.0.1:1", msgOf("x")); err == nil {
		t.Fatal("send to dead port succeeded")
	}
}

func BenchmarkSimSendDeliver(b *testing.B) {
	sched := simnet.NewScheduler(1)
	net := NewNetwork(sched, netmodel.Grid5000())
	src, _ := net.Attach("src", netmodel.Rennes)
	dst, _ := net.Attach("dst", netmodel.Sophia)
	dst.SetHandler(func(_ Addr, _ *message.Message) {})
	m := msgOf("payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(dst.Addr(), m)
		for sched.Pending() > 0 {
			sched.Step()
		}
	}
}

func TestSimPerPairFIFOOrdering(t *testing.T) {
	// Jitter must never reorder two messages between the same pair: the
	// modeled transport is connection-oriented (TCP), like JXTA's.
	sched := simnet.NewScheduler(3)
	net := NewNetwork(sched, netmodel.Grid5000())
	a, _ := net.Attach("fifo-a", netmodel.Rennes)
	b, _ := net.Attach("fifo-b", netmodel.Sophia)
	var got []string
	b.SetHandler(func(_ Addr, m *message.Message) {
		got = append(got, m.GetString("t", "body"))
	})
	const n = 200
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), msgOf(string(rune('A'+i%26))))
	}
	sched.Run(time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, s := range got {
		if s != string(rune('A'+i%26)) {
			t.Fatalf("reordered at %d", i)
		}
	}
}
