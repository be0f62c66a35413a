package rendezvous

import (
	"fmt"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/endpoint"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// leaseElems are the lease: element names a fuzz script can name by index;
// the last is one the protocol does not know.
var leaseElems = []string{elemRequest, elemGranted, elemCancelled, elemAddr, elemAlt, elemClient,
	elemHandoff, elemRedirect, elemRumor, elemMergeRst, elemTierProbe, elemTierAck, "Unknown"}

// leaseScript flattens a lease message into the fuzz input form: one record
// per element — name index, payload length, payload (cut at 255 bytes).
func leaseScript(m *message.Message) []byte {
	var script []byte
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS {
			continue // the endpoint envelope
		}
		for i, name := range leaseElems {
			if name == el.Name {
				data := el.Data[:min(len(el.Data), 255)]
				script = append(append(script, byte(i), byte(len(data))), data...)
			}
		}
	}
	return script
}

// leaseFromScript is the inverse; every payload gets memory of its own, so
// the test can overwrite what the service was shown.
func leaseFromScript(script []byte) (*message.Message, [][]byte) {
	m := message.New()
	var payloads [][]byte
	for len(script) >= 2 && m.Len() < 64 {
		name, n := leaseElems[int(script[0])%len(leaseElems)], min(int(script[1]), len(script)-2)
		data := append([]byte(nil), script[2:2+n]...)
		script = script[2+n:]
		payloads = append(payloads, data)
		m.Add(leaseNS, name, data)
	}
	return m, payloads
}

// leaseRig is a self-healing, island-merging tier of two rendezvous with
// leased edges, all started. The promotee is one of those edges, with the
// promote hook the node installs: a handoff switches it to the server half.
type leaseRig struct {
	sched    *simnet.Scheduler
	rdv      *rdvPeer
	edge     *edgePeer
	promotee *edgePeer
	inputs   int // fuzz inputs the rig has served
}

// newLeaseRig also returns the lease messages the bring-up and one graceful
// stop exchanged — requests, grants with alternates, roster and rumors, the
// handoff, redirects: the kinds the volatility golden sends.
func newLeaseRig(t testing.TB, seed int64) (*leaseRig, []*message.Message) {
	t.Helper()
	cfg := selfHealCfg()
	cfg.IslandMerge = true
	sched := simnet.NewScheduler(seed)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	var seen []*message.Message
	net.OnSend = func(_, _ transport.Addr, m *message.Message) {
		if endpoint.ServiceOf(m) == LeaseService {
			seen = append(seen, m.Clone())
		}
	}
	rdvs := newRdvOverlayCfg(t, sched, net, 3, cfg)
	edges := make([]*edgePeer, 3)
	for i := range edges {
		at := rdvs[i%2]
		edges[i] = newEdge(t, sched, net, fmt.Sprintf("edge%d", i), []peerview.Seed{{ID: at.id, Addr: at.tr.Addr()}}, cfg)
		edges[i].svc.Start()
	}
	sched.Run(10 * time.Minute)
	rdvs[1].svc.Stop() // hands its client over and redirects
	sched.Run(sched.Now() + time.Minute)
	net.OnSend = nil
	if _, ok := edges[0].svc.ConnectedRdv(); !ok || len(rdvs[0].svc.srv.clients) == 0 {
		t.Fatal("the rig did not converge: no lease to fuzz against")
	}
	promotee := edges[2]
	if promotee.svc.IsRendezvous() {
		t.Fatal("the rig promoted the edge meant to be promoted by a fuzzed handoff")
	}
	promotee.svc.SetPromoteHook(func() {
		adv := &advertisement.Rdv{PeerID: promotee.id, GroupID: testGroup, Name: "promotee", Address: string(promotee.tr.Addr())}
		pv := peerview.New(sched.NewEnv("promotee-pv"), promotee.ep, advstore.New(), adv, peerview.DefaultConfig(), promotee.svc.Alternates())
		pv.Start()
		promotee.svc.Promote(pv)
	})
	return &leaseRig{sched: sched, rdv: rdvs[0], edge: edges[0], promotee: promotee}, seen
}

// horizonEnv notes the longest delay a timer was armed with.
type horizonEnv struct {
	env.Env
	farthest time.Duration
}

func (e *horizonEnv) After(d time.Duration, fn func()) env.Event {
	e.farthest = max(e.farthest, d)
	return e.Env.After(d, fn)
}

// observable renders what a lease service shows the rest of the node, into
// memory of its own.
func observable(s *Service) string {
	rdv, connected := s.ConnectedRdv()
	return fmt.Sprint(clientsOf(s), rdv, connected, s.rumors.all()) // fmt sorts a map by key
}

// checkClientOrder fails t unless the client table is its own index: strictly
// ascending by ID, without duplicates, and hasClient agreeing with a linear
// scan for every client and every ID in probe.
func checkClientOrder(t *testing.T, v *server, probe ...ids.ID) {
	t.Helper()
	for i, cl := range v.clients {
		if i > 0 && !v.clients[i-1].ID.Less(cl.ID) {
			t.Fatalf("client table unsorted or duplicated at %d: %s !< %s", i, v.clients[i-1].ID, cl.ID)
		}
		probe = append(probe, cl.ID)
	}
	now := v.env.Now()
	for _, id := range probe {
		scan := false
		for _, cl := range v.clients {
			scan = scan || cl.ID.Equal(id) && cl.expires > now
		}
		if v.hasClient(id) != scan {
			t.Fatalf("hasClient(%s) = %v, a scan of the client table says %v", id, !scan, scan)
		}
	}
}

// FuzzReceiveLease feeds receiveLease arbitrary lease: element sets, from a
// known client, the rendezvous and a stranger, to three started services: a
// rendezvous (the server half), an edge (the client half), and an edge with
// a promote hook, which a handoff switches from one half to the other. It
// must not panic; one message may grow the client table and the rumor store,
// and stamp rumor records with a merge backoff, by no more than the entries
// it carried — and a server half a handoff built may also stamp the records
// the edge carried across, each of which it probes at once; the nil ID,
// which names no peer, never holds a lease or a route; whatever
// durations it names, no client lease ends later than a whole LeaseDuration
// from now and no timer is armed further out than one (a grant or a handoff
// promises at most what could have been asked for); a server half's client
// table stays strictly ascending by ID, with hasClient agreeing with a scan
// (checkClientOrder); and it must keep
// nothing of the message it was lent (transport.Handler): overwriting every
// payload after the call leaves the client table, ConnectedRdv() and the
// rumor store reading as they did. The rig is shared, and rebuilt every 64
// inputs so that the promotee is an edge again.
func FuzzReceiveLease(f *testing.F) {
	_, sent := newLeaseRig(f, 61)
	richest := map[string][]byte{} // per kind of message, the longest one sent
	for _, m := range sent {
		script := leaseScript(m)
		if kind := leaseElems[script[0]]; len(script) > len(richest[kind]) {
			richest[kind] = script
		}
	}
	for i, kind := range []string{elemRequest, elemGranted, elemHandoff, elemRedirect} {
		if richest[kind] == nil {
			f.Fatalf("the rig sent no %s message to seed the corpus with", kind)
		}
		f.Add(byte(i), richest[kind])
		delete(richest, kind)
	}
	for _, script := range richest { // tier probes, acks, merge rosters, cancels: when the rig sent any
		f.Add(byte(1), script)
	}
	f.Add(byte(0), []byte{10, 1, '1', 8, 3, 'x', ' ', 'y'}) // a tier probe with a malformed rumor
	forged := peerview.NewRumor(peerview.Seed{ID: ids.Nil, Addr: "sim://9/forged"})
	f.Add(byte(2), leaseScript(message.New().AddString(leaseNS, elemRequest, "60000000000").
		AddString(leaseNS, elemRumor, string(forged.AppendEncode(nil))))) // a checksummed rumor naming the nil ID
	forever := "9000000000000000000" // 285 years, in nanoseconds
	f.Add(byte(1), leaseScript(message.New().AddString(leaseNS, elemGranted, forever)))
	f.Add(byte(1), leaseScript(message.New().AddString(leaseNS, elemHandoff, "1").AddString(leaseNS, elemClient,
		ids.FromName(ids.KindPeer, "handed-off").String()+" sim://0/handed-off "+forever)))
	f.Add(byte(1), leaseScript(message.New().AddString(leaseNS, elemHandoff, "1").AddString(leaseNS, elemClient,
		"urn:jxta:nil sim://9/forged 30000000000"))) // a handed-off lease naming the nil ID
	f.Add(byte(1), leaseScript(message.New().AddString(leaseNS, elemGranted, "60000000000").
		AddString(leaseNS, elemAlt, "urn:jxta:nil sim://9/forged").
		AddString(leaseNS, elemClient, "urn:jxta:nil sim://9/forged"))) // an alternate and a co-client naming the nil ID
	f.Add(byte(1), leaseScript(message.New().AddString(leaseNS, elemRedirect, "urn:jxta:nil sim://9/forged"))) // a redirect to the nil ID
	var rig *leaseRig
	f.Fuzz(func(t *testing.T, who byte, script []byte) {
		if rig == nil || rig.inputs >= 64 || rig.rdv.svc.rumors.Len() > 256 || len(rig.rdv.svc.srv.clients) > 256 {
			rig, _ = newLeaseRig(t, 61) // building one takes milliseconds: share it
		}
		rig.inputs++
		src := []ids.ID{rig.edge.id, rig.rdv.id, ids.FromName(ids.KindPeer, "stranger")}[int(who)%3]
		for _, s := range []*Service{rig.rdv.svc, rig.edge.svc, rig.promotee.svc} {
			m, payloads := leaseFromScript(script)
			clients, rumors, stamped := len(clientsOf(s)), s.rumors.Len(), stampedOf(s)
			wasEdge := !s.IsRendezvous()
			timers := &horizonEnv{Env: s.env}
			s.env = timers
			s.receiveLease(src, m)
			s.env = timers.Env
			if timers.farthest > s.cfg.LeaseDuration {
				t.Fatalf("a timer was armed %v out, LeaseDuration is %v", timers.farthest, s.cfg.LeaseDuration)
			}
			if addr, ok := s.ep.RouteTo(ids.Nil); ok {
				t.Fatalf("the nil ID has a route, to %q", addr)
			}
			for id, cl := range clientsOf(s) {
				if id.IsNil() {
					t.Fatal("the nil ID holds a lease")
				}
				if cl.expires > s.env.Now()+s.cfg.LeaseDuration {
					t.Fatalf("client %s holds a lease for %v, LeaseDuration is %v", id.Short(), cl.expires-s.env.Now(), s.cfg.LeaseDuration)
				}
			}
			if s.srv != nil {
				checkClientOrder(t, s.srv, src, rig.edge.id, rig.rdv.id, rig.promotee.id)
			}
			room := m.Len() + 1 // the sender itself, once
			probed := room
			if wasEdge && s.IsRendezvous() {
				probed += rumors // a promotion probes every identity the edge heard of
			}
			if len(clientsOf(s))-clients > room || s.rumors.Len()-rumors > room || stampedOf(s)-stamped > probed {
				t.Fatalf("a message of %d elements grew clients %d→%d, rumors %d→%d, stamped records %d→%d",
					m.Len(), clients, len(clientsOf(s)), rumors, s.rumors.Len(), stamped, stampedOf(s))
			}
			before := observable(s)
			scribble(payloads)
			if after := observable(s); after != before {
				t.Fatalf("state changed when the delivered message was overwritten:\n before %s\n after  %s", before, after)
			}
		}
		// Whatever the message set in motion (grants, probes, a re-lease)
		// runs without the message.
		rig.sched.Run(rig.sched.Now() + 10*time.Millisecond)
	})
}

// TestHandoffGrowsClientTable is failure-inventory row 8 (ROADMAP item 3(d)),
// asserted as a ratchet: the client table has no ceiling, so one handoff grows
// it by every Cli element it carries. FuzzReceiveLease bounds the growth per
// element; nothing bounds the table. A ceiling lowers the figure; more than
// one client per element fails.
func TestHandoffGrowsClientTable(t *testing.T) {
	const carried = 4096
	rig, _ := newLeaseRig(t, 61)
	m := message.New().AddString(leaseNS, elemHandoff, "1")
	for i := 0; i < carried; i++ {
		sd := peerview.Seed{ID: ids.FromName(ids.KindPeer, fmt.Sprint("handed-off-", i)), Addr: transport.Addr(fmt.Sprint("sim://9/", i))}
		m.AddString(leaseNS, elemClient, string(sd.AppendEncode(nil))+" 30000000000")
	}
	s := rig.rdv.svc
	before := len(s.srv.clients)
	s.receiveLease(ids.FromName(ids.KindPeer, "stranger"), m)
	grew := len(s.srv.clients) - before
	t.Logf("a handoff of %d Cli elements grows the client table by %d", carried, grew)
	if grew > carried {
		t.Fatalf("a handoff of %d Cli elements grows the client table by %d, ceiling %d", carried, grew, carried)
	}
}
