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
	ta, tb := listenPair(t)
	t.Cleanup(func() { ta.Close(); tb.Close() })
	return map[string]contractPair{
		"sim": {sa, sb, func() { sched.RunAll() }},
		"tcp": {ta, tb, nil},
	}
}

// seqBody is what a handler that obeys the loan rule takes out of a
// delivered message: copies.
type seqBody struct{ seq, body string }

// collect waits for n items from got.
func collect[T any](t *testing.T, got <-chan T, n int) []T {
	t.Helper()
	var out []T
	for len(out) < n {
		select {
		case v := <-got:
			out = append(out, v)
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d messages", len(out), n)
		}
	}
	return out
}

// sendMutateResend sends seq=1 body="original", overwrites the payload
// buffer, resets and refills the very same Message as seq=2 body="MUTATED!",
// sends that, and scribbles again.
func sendMutateResend(t *testing.T, p contractPair) {
	t.Helper()
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
}

var sentInOrder = []seqBody{{"1", "original"}, {"2", "MUTATED!"}}

// TestSendRetainsNothing is the Transport.Send copy contract: once Send
// returns, the sender may overwrite its payload buffers and reset and refill
// the very same Message, and the receiver still sees the bytes as they were
// when Send was called. The endpoint relies on it to build every outbound
// message in pooled scratch space. The receiver copies inside its handler,
// as the loan rule (TestDeliveredMessageIsOnLoan) says it must.
func TestSendRetainsNothing(t *testing.T) {
	for name, p := range contractPairs(t) {
		t.Run(name, func(t *testing.T) {
			got := make(chan seqBody, 4)
			p.b.SetHandler(func(_ Addr, m *message.Message) {
				got <- seqBody{m.GetString("t", "seq"), m.GetString("t", "body")}
			})
			sendMutateResend(t, p)
			for i, have := range collect(t, got, 2) {
				if have != sentInOrder[i] {
					t.Errorf("message %d arrived as %+v, want %+v", i, have, sentInOrder[i])
				}
			}
		})
	}
}

// TestDeliveredMessageIsOnLoan is the Handler ownership rule, the same on
// both transports: the message is the handler's for the duration of the
// call. A handler that clones sees what was sent, in order; one that keeps
// the pointer finds the message empty or rewritten by a later delivery.
func TestDeliveredMessageIsOnLoan(t *testing.T) {
	for name, p := range contractPairs(t) {
		t.Run(name, func(t *testing.T) {
			type seen struct{ kept, clone *message.Message }
			got := make(chan seen, 4)
			p.b.SetHandler(func(_ Addr, m *message.Message) { got <- seen{m, m.Clone()} })
			sendMutateResend(t, p)
			msgs := collect(t, got, 2)
			// A third delivery, so that on TCP (where the loan ends when the
			// next frame is decoded) both earlier ones are over.
			if err := p.a.Send(p.b.Addr(), message.New().AddString("t", "seq", "3")); err != nil {
				t.Fatal(err)
			}
			if p.drive != nil {
				p.drive()
			}
			collect(t, got, 1)
			for i, want := range sentInOrder {
				if have := (seqBody{msgs[i].clone.GetString("t", "seq"), msgs[i].clone.GetString("t", "body")}); have != want {
					t.Errorf("clone of message %d reads %+v, want %+v", i, have, want)
				}
			}
			// The first delivery's loan is over on every transport.
			if kept := msgs[0].kept; kept.GetString("t", "seq") == "1" && kept.GetString("t", "body") == "original" {
				t.Errorf("the kept pointer still reads as message 1 (%v): the transport did not take back what it lent", kept)
			}
		})
	}
}
