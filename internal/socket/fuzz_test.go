package socket

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// fuzzSeg builds a marshaled segment frame for the seed corpus.
func fuzzSeg(kv ...string) []byte {
	m := message.New()
	for i := 0; i+1 < len(kv); i += 2 {
		m.AddString(ns, kv[i], kv[i+1])
	}
	return m.Marshal()
}

// FuzzSegmentParser drives the stream layer's wire path with arbitrary
// bytes: the frame decoder (message.Unmarshal — the same parser every TCP
// frame goes through) and the segment demux (Service.receive with all its
// strconv field parsing, handshake state machine and reassembly logic).
// Properties:
//
//  1. Neither layer ever panics, whatever the bytes decode to — unknown
//     types, absurd sequence numbers, negative windows, duplicate SYNs.
//  2. Frame round-trip: a frame the decoder accepts re-encodes to a
//     canonical frame that decodes to the same element sequence.
//
// Each input is delivered twice — once cold and once against a fabricated
// established connection matching the segment's own connection key — so
// the data/ack/reassembly paths run, then virtual time advances so every
// armed timer (retransmission, linger, dial deadline) fires too.
func FuzzSegmentParser(f *testing.F) {
	pipeURN := ids.FromName(ids.KindPipe, "fuzz-pipe").String()
	for _, seed := range [][]byte{
		fuzzSeg(elemType, typeSyn, elemConn, "1", elemInit, "1", elemPipe, pipeURN, elemWnd, "262144"),
		fuzzSeg(elemType, typeSynAck, elemConn, "1", elemWnd, "262144"),
		fuzzSeg(elemType, typeAck, elemConn, "1", elemAck, "4096", elemWnd, "100"),
		fuzzSeg(elemType, typeData, elemConn, "1", elemInit, "1", elemSeq, "0", elemAck, "0", elemWnd, "65536", elemData, "payload"),
		fuzzSeg(elemType, typeData, elemConn, "7", elemSeq, "18446744073709551615", elemAck, "18446744073709551615", elemWnd, "-5", elemFin, "1"),
		fuzzSeg(elemType, typeRst, elemConn, "1"),
		fuzzSeg(elemType, "bogus", elemConn, "0"),
		[]byte("not a frame at all"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := message.Unmarshal(data)
		if err != nil {
			return // rejected frame: only the no-panic property applies
		}
		enc := m.Marshal()
		m2, err := message.Unmarshal(enc)
		if err != nil {
			t.Fatalf("canonical frame does not re-decode: %v", err)
		}
		if m2.Len() != m.Len() {
			t.Fatalf("round-trip element count %d != %d", m2.Len(), m.Len())
		}
		for i, el := range m.Elements() {
			el2 := m2.Elements()[i]
			if el.Namespace != el2.Namespace || el.Name != el2.Name || !bytes.Equal(el.Data, el2.Data) {
				t.Fatalf("round-trip element %d diverged", i)
			}
		}

		sched := simnet.NewScheduler(1)
		e := sched.NewEnv("fuzz")
		net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
		tr, err := net.Attach("fuzz", netmodel.Rennes)
		if err != nil {
			t.Fatal(err)
		}
		ep := endpoint.New(e, ids.NewRandom(ids.KindPeer, e.Rand()), tr)
		s := New(e, ep, nil)
		// A listener bound to whatever pipe the segment names, so a decoded
		// SYN traverses the accept path instead of dropping at the lookup.
		if pid, err := ids.Parse(m.GetString(ns, elemPipe)); err == nil {
			s.listeners = map[ids.ID]*Listener{pid: {svc: s, Adv: &advertisement.Pipe{PipeID: pid}, accept: func(*Conn) {}}}
		}
		src := ids.NewRandom(ids.KindPeer, e.Rand())
		s.receive(src, m)
		// Re-deliver against an established connection under the segment's
		// own key, reaching the data/ack/reassembly paths a cold service
		// never enters.
		if cid, err := strconv.ParseUint(m.GetString(ns, elemConn), 10, 64); err == nil {
			key := connKey{peer: src, id: cid, initiated: m.GetString(ns, elemInit) != "1"}
			if _, ok := s.conns[key]; !ok {
				c := s.newConn(key)
				c.state = stateEstablished
				s.addConn(c)
			}
			s.receive(src, m)
		}
		sched.Run(5 * time.Second) // let retransmission and linger timers fire
		// The fabricated listeners have no backing pipe; drop them before
		// the teardown walk (Listener.Close is not under test here).
		s.listeners = nil
		s.Stop()
		sched.Run(sched.Now() + time.Minute)
	})
}
