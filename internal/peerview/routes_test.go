package peerview

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/simnet"
	"jxta/internal/transport"
)

// TestViewRoutesMatchLastWriteWins holds a rendezvous' routes to a plain map
// that every route write lands in, the last one winning: the endpoint with
// its peerview installed must answer RouteTo for every ID, KnownPeers and the
// jxta_endpoint_routes gauge exactly as that map does, however the answer is
// split between the endpoint's table and the view, and the table must store
// no empty address. Seeded sequences mix every way a route is written or
// forgotten:
//   - AddRoute and LearnRoute, to view members at their entry's address and
//     at another, and to strangers;
//   - updates that admit a peer, renew it with the bytes it holds (which
//     writes nothing) or move its Address, and referrals naming strangers,
//     members and the local peer (hear writes the Address of every
//     advertisement it interns and none of one it renews or of a stranger
//     whose probe is in flight);
//   - clock advances and rounds of Algorithm 1, whose sweep expires entries
//     and which write nothing;
//   - Reset of the endpoint and the view together, as node.Restart does.
//
// The population is small (eight peers, three addresses each, one of them
// empty) so every peer is admitted, moved, overwritten, expired and reset
// many times over.
func TestViewRoutesMatchLastWriteWins(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		sched := simnet.NewScheduler(seed)
		rdv := newOverlay(t, sched, 1, DefaultConfig())[0]
		ep, pv := rdv.ep, rdv.pv
		reg := metrics.NewRegistry()
		ep.Collect(reg)
		rng := rand.New(rand.NewSource(seed))
		peers := []ids.ID{rdv.id}
		for i := 0; i < 8; i++ {
			peers = append(peers, ids.FromName(ids.KindPeer, fmt.Sprintf("peer%d", i)))
		}
		addrOf := func(p ids.ID, k int) transport.Addr {
			if k == 2 {
				return "" // an advertisement that names no address
			}
			return transport.Addr(fmt.Sprintf("sim://test/%s/%d", p.Short(), k))
		}
		advOf := func(p ids.ID, k int) []byte {
			b, err := advertisement.EncodeXML(&advertisement.Rdv{PeerID: p, GroupID: testGroup,
				Name: "r", Address: string(addrOf(p, k))})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		ref := map[ids.ID]transport.Addr{}
		write := func(p ids.ID, a transport.Addr) {
			if a != "" && !p.Equal(rdv.id) {
				ref[p] = a
			}
		}
		// heard applies to ref what hear writes for one advertisement, given
		// the view before hear applies it: the Address of bytes it interns,
		// nothing for bytes the entry holds, for a stranger whose referral
		// probe is in flight or for the local peer. It reports whether the
		// entry held the bytes.
		heard := func(p ids.ID, wire []byte, admit bool) (held bool) {
			if en := rdv.entryOf(p); en != nil && string(en.sh.Bytes()) == string(wire) {
				return true
			} else if _, inflight := pv.probed[p]; en == nil && !admit && inflight {
				return false
			}
			adv, _ := advertisement.DecodeXML(wire)
			write(p, transport.Addr(adv.(*advertisement.Rdv).Address))
			return false
		}
		counts := map[string]int{}
		for step := 0; step < 600; step++ {
			p := peers[rng.Intn(len(peers))]
			k := rng.Intn(3)
			switch op := rng.Intn(100); {
			case op < 15:
				counts["AddRoute"]++
				ep.AddRoute(p, addrOf(p, k))
				write(p, addrOf(p, k))
			case op < 30:
				counts["LearnRoute"]++
				ep.LearnRoute(p, []byte(addrOf(p, k)))
				write(p, addrOf(p, k))
			case op < 60:
				counts["update"]++
				wire := advOf(p, k)
				if heard(p, wire, true) {
					counts["held"]++
				}
				pv.receive(p, message.New().AddString(ns, elemType, typeUpdate).Add(ns, elemAdv, wire))
			case op < 77:
				// A referral batch of one or two peers: hear applies each
				// element in turn, and the second names another peer, so the
				// view each element finds is the one before receive.
				counts["referral"]++
				batch := []ids.ID{p}
				if q := peers[rng.Intn(len(peers))]; !q.Equal(p) {
					batch = append(batch, q)
				}
				m := message.New().AddString(ns, elemType, typeReferral)
				for _, q := range batch {
					wire := advOf(q, rng.Intn(3))
					heard(q, wire, false)
					m.Add(ns, elemAdv, wire)
				}
				pv.receive(rdv.id, m)
			case op < 95:
				// A round of Algorithm 1: its sweep expires the entries not
				// renewed within EntryExpiry, and it forgets the referral
				// probes sent an Interval ago. Neither writes a route.
				sched.Run(sched.Now() + time.Duration(rng.Intn(12))*time.Minute)
				before := pv.Size()
				pv.iterate()
				if pv.Size() < before {
					counts["expired"]++
				}
			default:
				counts["Reset"]++
				ep.Reset()
				pv.Reset()
				clear(ref)
			}
			for _, q := range peers {
				got, ok := ep.RouteTo(q)
				want, wantOK := ref[q]
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: RouteTo(%s) = %q, %v; the last route written is %q, %v (view holds it: %v)",
						seed, step, q.Short(), got, ok, want, wantOK, pv.Contains(q))
				}
			}
			known := ep.KnownPeers()
			// The table answers before the view, so an empty address stored
			// in it would be a known peer routed at "".
			for _, q := range known {
				if a, _ := ep.RouteTo(q); a == "" {
					t.Fatalf("seed %d step %d: the endpoint's table stores an empty address for %s", seed, step, q.Short())
				}
			}
			slices.SortFunc(known, ids.ID.Compare)
			var want []ids.ID
			for q := range ref {
				want = append(want, q)
			}
			slices.SortFunc(want, ids.ID.Compare)
			if !slices.Equal(known, want) {
				t.Fatalf("seed %d step %d: KnownPeers = %v, want %v", seed, step, known, want)
			}
			if got := reg.Snapshot()["jxta_endpoint_routes"]; got != float64(len(ref)) {
				t.Fatalf("seed %d step %d: the routes gauge reads %v, want %d", seed, step, got, len(ref))
			}
		}
		for _, op := range []string{"AddRoute", "LearnRoute", "update", "held", "referral", "expired", "Reset"} {
			if counts[op] == 0 {
				t.Fatalf("seed %d: no step exercised %s (%v)", seed, op, counts)
			}
		}
	}
}
