package rendezvous

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/netmodel"
	"jxta/internal/peerview"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// lent is a lease message whose payloads the test can take back: every
// payload is memory of its own, for scribble to overwrite the way a
// transport built with -tags loancheck overwrites a delivery as its loan
// ends.
type lent struct {
	message.Message
	payloads [][]byte
}

func (l *lent) add(name, value string) *lent {
	p := []byte(value)
	l.payloads = append(l.payloads, p)
	l.Add(leaseNS, name, p)
	return l
}

// scribble overwrites payloads a handler was lent, as the end of a loan does.
func scribble(payloads [][]byte) {
	for _, p := range payloads {
		for i := range p {
			p[i] = 0xDB
		}
	}
}

// TestLearnedSeedsOwnTheirAddr: lease records are read in place, so the
// address of every seed and rumor a handler parses is a view of a message
// that is only on loan (transport.Handler). A request, a grant, a tier probe,
// both kinds of tier ack, a handoff and a redirect are delivered, each naming
// a peer nobody has heard of, and every loan is overwritten when its handler
// returns. Whatever was learned must still read as it was sent: the rumor
// stores, the alternates and roster, the client table, the successor an edge
// is waiting on, and the endpoints' routes — the route is the one that got
// away while this was written (TestGoldenIslandMergeReplay diverged under
// loancheck until maybeMerge's AddRoute was given a copy).
func TestLearnedSeedsOwnTheirAddr(t *testing.T) {
	cfg := selfHealCfg()
	cfg.IslandMerge = true
	sched := simnet.NewScheduler(31)
	net := transport.NewNetwork(sched, netmodel.Uniform(time.Millisecond))
	rdv := newRdvOverlayCfg(t, sched, net, 2, cfg)[0]
	seeds := []peerview.Seed{{ID: rdv.id, Addr: rdv.tr.Addr()}}
	edge := newEdge(t, sched, net, "edge", seeds, cfg)
	edge.svc.Start()
	sleeper := newEdge(t, sched, net, "sleeper", nil, cfg) // no seed: nothing to lease with
	sleeper.svc.Start()
	sched.Run(time.Minute)
	if _, ok := edge.svc.ConnectedRdv(); !ok || rdv.pv.Size() != 1 {
		t.Fatal("the rig did not converge")
	}
	sleeper.svc.cli.dormant = true

	sent := map[ids.ID]transport.Addr{}
	peer := func(name string) peerview.Seed {
		sd := peerview.Seed{ID: ids.FromName(ids.KindPeer, name), Addr: transport.Addr("sim://9/" + name)}
		sent[sd.ID] = sd.Addr
		return sd
	}
	seed := func(sd peerview.Seed) string { return string(sd.AppendEncode(nil)) }
	rumor := func(sd peerview.Seed) string { return string(peerview.NewRumor(sd).AppendEncode(nil)) }
	deliver := func(to *Service, src ids.ID, m *lent) {
		t.Helper()
		to.receiveLease(src, &m.Message)
		scribble(m.payloads)
	}

	// To the rendezvous: a request from a new edge that gossips a rumor, a
	// tier probe, an ack naming its sender, an ack redirecting to a third
	// peer, and a predecessor's handoff.
	client, gossiped := peer("client"), peer("gossiped")
	deliver(rdv.svc, client.ID, new(lent).add(elemRequest, "60000000000").
		add(elemAddr, string(client.Addr)).add(elemRumor, rumor(gossiped)))
	prober := peer("prober")
	deliver(rdv.svc, prober.ID, new(lent).add(elemTierProbe, "1").add(elemRumor, rumor(prober)))
	anchor := peer("anchor")
	deliver(rdv.svc, anchor.ID, new(lent).add(elemTierAck, "1").add(elemRumor, rumor(anchor)))
	elsewhere := peer("elsewhere")
	deliver(rdv.svc, anchor.ID, new(lent).add(elemTierAck, "1").add(elemRumor, rumor(elsewhere)))
	handed := peer("handed-off")
	deliver(rdv.svc, anchor.ID, new(lent).add(elemHandoff, "1").add(elemClient, seed(handed)+" 30000000000"))

	// To the leased edge: a grant with two alternates and two co-clients (the
	// first of each replaces the entry the last grant left, the second makes
	// the list longer) and a rumor, then a redirect. To the dormant one: the
	// tier probe that wakes it.
	alt, alt2, co, co2, told := peer("alternate"), peer("alternate-2"), peer("co-client"), peer("co-client-2"), peer("told")
	deliver(edge.svc, rdv.id, new(lent).add(elemGranted, "60000000000").
		add(elemAlt, seed(alt)).add(elemAlt, seed(alt2)).
		add(elemClient, seed(co)).add(elemClient, seed(co2)).add(elemRumor, rumor(told)))
	alternates, roster := edge.svc.Alternates(), edge.svc.Roster()
	successor := peer("successor")
	deliver(edge.svc, rdv.id, new(lent).add(elemRedirect, seed(successor)))
	waker := peer("waker")
	deliver(sleeper.svc, waker.ID, new(lent).add(elemTierProbe, "1").add(elemRumor, rumor(waker)))

	// Everything a service or its endpoint can be asked about a peer.
	type learned struct {
		where string
		sd    peerview.Seed
	}
	var all []learned
	for name, p := range map[string]struct {
		svc *Service
		ep  *endpoint.Endpoint
	}{"rdv": {rdv.svc, rdv.ep}, "edge": {edge.svc, edge.ep}, "sleeper": {sleeper.svc, sleeper.ep}} {
		for _, r := range p.svc.rumors.all() {
			all = append(all, learned{name + " rumor", r.Seed})
		}
		for id, cl := range clientsOf(p.svc) {
			all = append(all, learned{name + " client", peerview.Seed{ID: id, Addr: cl.Addr}})
		}
		for _, id := range p.ep.KnownPeers() {
			addr, _ := p.ep.RouteTo(id)
			all = append(all, learned{name + " route", peerview.Seed{ID: id, Addr: addr}})
		}
		all = append(all, learned{name + " successor", p.svc.cli.succTarget})
	}
	for _, sd := range alternates {
		all = append(all, learned{"edge alternate", sd})
	}
	for _, sd := range roster {
		all = append(all, learned{"edge roster", sd})
	}
	have := map[string]bool{}
	for _, l := range all {
		if strings.Contains(string(l.sd.Addr), "\xDB") {
			t.Errorf("%s %s reads %q: a view of a message whose loan ended", l.where, l.sd.ID.Short(), l.sd.Addr)
		}
		if want, ours := sent[l.sd.ID]; ours {
			if l.sd.Addr != want {
				t.Errorf("%s %s reads %q, was sent %q", l.where, l.sd.ID.Short(), l.sd.Addr, want)
			}
			have[fmt.Sprint(l.where, " ", want)] = true
		}
	}
	for _, want := range []string{
		"rdv client sim://9/client", "rdv rumor sim://9/gossiped", "rdv route sim://9/gossiped",
		"rdv rumor sim://9/prober", "rdv route sim://9/prober",
		"rdv rumor sim://9/anchor", "rdv route sim://9/anchor",
		"rdv rumor sim://9/elsewhere", "rdv route sim://9/elsewhere",
		"rdv client sim://9/handed-off", "rdv route sim://9/handed-off",
		"edge alternate sim://9/alternate", "edge alternate sim://9/alternate-2",
		"edge roster sim://9/co-client", "edge roster sim://9/co-client-2",
		"edge rumor sim://9/alternate", "edge rumor sim://9/co-client", "edge rumor sim://9/told",
		"edge successor sim://9/successor", "edge rumor sim://9/successor", "edge route sim://9/successor",
		"sleeper successor sim://9/waker", "sleeper rumor sim://9/waker", "sleeper route sim://9/waker",
	} {
		if !have[want] {
			t.Errorf("nothing learned for %q: the message that carried it was not taken up", want)
		}
	}
}
