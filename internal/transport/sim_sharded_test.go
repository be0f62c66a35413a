package transport

import (
	"testing"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
)

// shardedPair builds a two-shard fabric with a on shard 0 (Rennes) and b on
// shard 1 (Sophia) over a jitter-free uniform model, so every cross-shard
// delivery takes exactly latency (+ transmission) and the lookahead window
// is latency−1ns.
func shardedPair(t *testing.T, latency time.Duration) (*simnet.ShardedScheduler, *Network, *Sim, *Sim) {
	t.Helper()
	model := netmodel.Uniform(latency)
	assign := make([]int, netmodel.NumSites)
	assign[netmodel.Sophia] = 1
	lookahead := model.ShardLookahead(assign)
	if lookahead <= 0 {
		t.Fatalf("no lookahead from uniform model: %v", lookahead)
	}
	ss := simnet.NewSharded(1, 2, lookahead)
	net, err := NewShardedNetwork(ss, model, assign)
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Attach("a", netmodel.Rennes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b", netmodel.Sophia)
	if err != nil {
		t.Fatal(err)
	}
	return ss, net, a, b
}

func TestCrossShardDelivery(t *testing.T) {
	const latency = time.Millisecond
	ss, net, a, b := shardedPair(t, latency)
	var gotFrom Addr
	var gotAt time.Duration
	b.SetHandler(func(from Addr, m *message.Message) {
		gotFrom = from
		gotAt = ss.Shard(1).Now()
	})
	if err := a.Send(b.Addr(), msgOf("x")); err != nil {
		t.Fatal(err)
	}
	ss.Run(time.Second)
	if gotFrom != a.Addr() {
		t.Fatalf("handler saw from=%q, want %q", gotFrom, a.Addr())
	}
	if gotAt < latency {
		t.Fatalf("delivered at %v, before the %v cross-shard latency", gotAt, latency)
	}
	if st := net.Stats(); st.Messages != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 message, 0 dropped", st)
	}
}

func TestCrossShardFIFOOrder(t *testing.T) {
	ss, _, a, b := shardedPair(t, time.Millisecond)
	var got []string
	b.SetHandler(func(_ Addr, m *message.Message) {
		got = append(got, m.GetString("t", "payload"))
	})
	for _, p := range []string{"1", "2", "3", "4"} {
		m := message.New().AddString("t", "payload", p)
		if err := a.Send(b.Addr(), m); err != nil {
			t.Fatal(err)
		}
	}
	ss.Run(time.Second)
	if len(got) != 4 {
		t.Fatalf("delivered %d messages, want 4", len(got))
	}
	for i, p := range []string{"1", "2", "3", "4"} {
		if got[i] != p {
			t.Fatalf("cross-shard FIFO violated: got %v", got)
		}
	}
}

func TestCrossShardCancelInFlightDelivery(t *testing.T) {
	// The receiver crashes (driver-side churn injection) while a
	// cross-shard delivery is in flight: the exchange-queue entry must
	// resolve to a drop on the destination shard, not a stale handler
	// call or a panic.
	const latency = 10 * time.Millisecond
	ss, net, a, b := shardedPair(t, latency)
	delivered := false
	b.SetHandler(func(Addr, *message.Message) { delivered = true })
	ss.After(latency/2, func() { b.Close() })
	ss.Shard(0).After(0, func() {
		if err := a.Send(b.Addr(), msgOf("x")); err != nil {
			t.Error(err)
		}
	})
	ss.Run(time.Second)
	if delivered {
		t.Fatal("message delivered to a crashed peer")
	}
	if st := net.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestCrossShardReceiverClosesBeforeArrival(t *testing.T) {
	// Same as above but the receiver closes itself from its own shard's
	// context (graceful local close racing an in-flight frame).
	const latency = 10 * time.Millisecond
	ss, net, a, b := shardedPair(t, latency)
	delivered := false
	b.SetHandler(func(Addr, *message.Message) { delivered = true })
	ss.Shard(1).After(time.Millisecond, func() { b.Close() })
	ss.Shard(0).After(0, func() {
		if err := a.Send(b.Addr(), msgOf("x")); err != nil {
			t.Error(err)
		}
	})
	ss.Run(time.Second)
	if delivered {
		t.Fatal("message delivered to a closed endpoint")
	}
	if st := net.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestShardedSameShardDelivery(t *testing.T) {
	// Two endpoints on one shard use the plain serial fast path even
	// inside a sharded fabric.
	ss, net, a, _ := shardedPair(t, time.Millisecond)
	c, err := net.Attach("c", netmodel.Rennes) // same site, same shard as a
	if err != nil {
		t.Fatal(err)
	}
	delivered := false
	c.SetHandler(func(Addr, *message.Message) { delivered = true })
	if err := a.Send(c.Addr(), msgOf("x")); err != nil {
		t.Fatal(err)
	}
	ss.Run(time.Second)
	if !delivered {
		t.Fatal("same-shard delivery lost")
	}
}

// TestStatsConcurrentWithShardedRun is the -race regression for the
// mid-run Stats() snapshot: two shards ping-pong for a long virtual run
// while the driver-side goroutine scrapes Stats() the whole time (the
// live-metrics pattern). Before the per-shard counters became atomic this
// raced; now every snapshot must also be monotonic and the final sum exact.
func TestStatsConcurrentWithShardedRun(t *testing.T) {
	const latency = time.Millisecond
	ss, net, a, b := shardedPair(t, latency)
	sent := 1
	b.SetHandler(func(from Addr, m *message.Message) {
		if sent < 400 {
			sent++
			if err := b.Send(a.Addr(), msgOf("pong")); err != nil {
				t.Error(err)
			}
		}
	})
	a.SetHandler(func(from Addr, m *message.Message) {
		if sent < 400 {
			sent++
			if err := a.Send(b.Addr(), msgOf("ping")); err != nil {
				t.Error(err)
			}
		}
	})
	if err := a.Send(b.Addr(), msgOf("ping")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ss.Run(10 * time.Second)
	}()
	var last uint64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		st := net.Stats()
		if st.Messages < last {
			t.Fatalf("Stats went backwards: %d after %d", st.Messages, last)
		}
		last = st.Messages
	}
	if st := net.Stats(); st.Messages != 400 || st.Dropped != 0 {
		t.Fatalf("final stats = %+v, want 400 messages, 0 dropped", st)
	}
}
