package transport

import (
	"testing"
	"time"

	"jxta/internal/message"
	"jxta/internal/netmodel"
)

// contractPair is a sender and a receiver on one fabric; drive, when set,
// runs the fabric's virtual clock far enough to deliver what was sent.
type contractPair struct {
	a, b  Transport
	drive func()
}

func contractPairs(t *testing.T) map[string]contractPair {
	t.Helper()
	sched, _, sa, sb := newSimPair(t, netmodel.Uniform(time.Millisecond))
	hub := NewHub()
	la, _ := hub.Attach("a")
	lb, _ := hub.Attach("b")
	ta, tb := listenPair(t)
	t.Cleanup(func() { ta.Close(); tb.Close() })
	return map[string]contractPair{
		"sim":  {sa, sb, func() { sched.Run(time.Second) }},
		"loop": {la, lb, nil},
		"tcp":  {ta, tb, nil},
	}
}

// TestSendRetainsNothing is the Transport.Send copy contract: once Send
// returns, the sender may overwrite its payload buffers and reset and refill
// the very same Message, and the receiver still sees the bytes as they were
// when Send was called. The endpoint relies on it to build every outbound
// message in pooled scratch space.
func TestSendRetainsNothing(t *testing.T) {
	for name, p := range contractPairs(t) {
		t.Run(name, func(t *testing.T) {
			got := make(chan *message.Message, 4)
			p.b.SetHandler(func(_ Addr, m *message.Message) { got <- m })
			buf := []byte("original")
			m := message.New().Add("t", "body", buf).AddString("t", "seq", "1")
			if err := p.a.Send(p.b.Addr(), m); err != nil {
				t.Fatal(err)
			}
			copy(buf, "MUTATED!")
			m.Reset()
			m.AddString("t", "seq", "2").Add("t", "body", buf)
			if err := p.a.Send(p.b.Addr(), m); err != nil {
				t.Fatal(err)
			}
			copy(buf, "garbage!")
			m.Reset()

			if p.drive != nil {
				p.drive()
			}
			var msgs []*message.Message
			for len(msgs) < 2 {
				select {
				case m := <-got:
					msgs = append(msgs, m)
				case <-time.After(5 * time.Second):
					t.Fatalf("received %d of 2 messages", len(msgs))
				}
			}
			for i, want := range []struct{ seq, body string }{{"1", "original"}, {"2", "MUTATED!"}} {
				if seq, body := msgs[i].GetString("t", "seq"), msgs[i].GetString("t", "body"); seq != want.seq || body != want.body {
					t.Errorf("message %d arrived as seq=%q body=%q, want seq=%q body=%q", i, seq, body, want.seq, want.body)
				}
			}
		})
	}
}

// TestLoopSendFromInsideSend covers the loopback's reentrancy: its handler
// runs inside the sender's Send, and may itself send — reusing, as the
// endpoint does, scratch it will recycle the moment its own Send returns.
func TestLoopSendFromInsideSend(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Attach("a")
	b, _ := hub.Attach("b")
	var atA, atB *message.Message
	a.SetHandler(func(_ Addr, m *message.Message) { atA = m })
	scratch := message.New()
	b.SetHandler(func(src Addr, m *message.Message) {
		atB = m
		scratch.Append(m).AddString("t", "ack", "yes")
		if err := b.Send(src, scratch); err != nil {
			t.Error(err)
		}
		scratch.Reset()
	})
	buf := []byte("ping")
	if err := a.Send(b.Addr(), message.New().Add("t", "body", buf)); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	if atB.GetString("t", "body") != "ping" {
		t.Errorf("b holds %q after the sender reused its buffer", atB.GetString("t", "body"))
	}
	if atA == nil || atA.GetString("t", "body") != "ping" || atA.GetString("t", "ack") != "yes" {
		t.Errorf("a received %v from inside its own Send", atA)
	}
}
