package rendezvous

import (
	"slices"
	"strconv"
	"time"

	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/peerview"
	"jxta/internal/transport"
)

// clientLease is one granted lease at a rendezvous: the edge, with its
// transport address when it shared one (SelfHeal), and when the lease ends.
type clientLease struct {
	peerview.Seed
	expires time.Duration
}

// server is the rendezvous' half of the lease protocol: it owns the
// peerview, grants leases and sweeps the client table, relays walks, merges
// islands and hands its table off on a graceful stop. Every table a message
// can grow is here but the rumor store, which a promotion carries across;
// each table is nil until first written.
type server struct {
	*core
	pv          *peerview.PeerView
	clients     []clientLease // ascending ID, like the view: the ordering is the index (client)
	clientSweep *env.Ticker
	walkSeen    map[walkKey]bool
	nextWalkID  uint64
}

func newServer(c *core, pv *peerview.PeerView) *server {
	v := &server{core: c, pv: pv}
	if c.cfg.IslandMerge {
		pv.SetMergeListener(v.onPeerviewMerge)
	}
	return v
}

func (v *server) start() {
	v.clientSweep = env.NewTicker(v.env, v.cfg.LeaseDuration/4, v.sweepClients)
}

// halt stops the sweep; a graceful, self-healing stop first hands the lease
// table off.
func (v *server) halt(graceful bool) {
	if graceful && v.cfg.SelfHeal && len(v.clients) > 0 {
		v.handoff()
	}
	if v.clientSweep != nil {
		v.clientSweep.Stop()
		v.clientSweep = nil
	}
}

// reset drops the leases and the walk dedup set. Walk IDs
// keep increasing: other peers may remember this peer's walks from before.
func (v *server) reset() {
	*v = server{core: v.core, pv: v.pv, clientSweep: v.clientSweep, nextWalkID: v.nextWalkID}
}

// client returns the position edge holds, or would be inserted at, in the
// client table's ascending order, and whether it is present.
func (v *server) client(edge ids.ID) (int, bool) {
	return slices.BinarySearchFunc(v.clients, edge, func(cl clientLease, id ids.ID) int { return cl.ID.Compare(id) })
}

func (v *server) hasClient(edge ids.ID) bool {
	i, ok := v.client(edge)
	return ok && v.clients[i].expires > v.env.Now()
}

// fresh reports whether cl may be rostered, handed off or elected: it shared
// an address and its lease has not ended. Expired leases linger until the
// next sweep; rostering a dead client could make every elector unanimously
// pick a dead successor.
func (v *server) fresh(cl clientLease) bool {
	return cl.Addr != "" && cl.expires > v.env.Now()
}

// setClient grants or refreshes a lease in the client table, at its place
// in the order. The table keeps cl.Addr: the caller passes a string of its
// own, not a view.
func (v *server) setClient(cl clientLease) {
	if i, ok := v.client(cl.ID); ok {
		v.clients[i] = cl
	} else {
		v.clients = slices.Insert(v.clients, i, cl)
	}
}

// adopt grants every co-client on an elected successor's roster an
// implicit lease.
func (v *server) adopt(roster []peerview.Seed) {
	for _, sd := range roster {
		if sd.ID.Equal(v.ep.ID()) {
			continue
		}
		v.learnRoute(sd)
		v.setClient(clientLease{Seed: sd, expires: v.env.Now() + v.cfg.LeaseDuration})
		if v.cfg.IslandMerge {
			v.rumorStore().add(peerview.NewRumor(sd))
		}
	}
}

func (v *server) sweepClients() {
	now := v.env.Now()
	kept := v.clients[:0]
	for _, cl := range v.clients {
		if cl.expires > now {
			kept = append(kept, cl)
		}
	}
	v.m.expired += uint64(len(v.clients) - len(kept))
	clear(v.clients[len(kept):]) // the expired tail's addresses
	v.clients = kept
	if v.cfg.IslandMerge {
		evicted := v.rumors.sweep(func(id ids.ID) bool {
			return id.Equal(v.ep.ID()) || v.pv.Contains(id) || v.hasClient(id)
		})
		v.m.rumorEvicts += uint64(evicted)
		v.retryMerges()
	}
}

// receiveRequest grants or renews src's lease.
func (v *server) receiveRequest(src ids.ID, asked, edgeAddr []byte, m *message.Message) {
	if !v.started {
		return // stopped peers do not grant leases
	}
	dur := v.cfg.LeaseDuration
	if n, err := strconv.ParseInt(string(asked), 10, 64); err == nil && n > 0 && time.Duration(n) < dur {
		dur = time.Duration(n)
	}
	var addr transport.Addr
	if i, renewal := v.client(src); renewal {
		v.m.renewed++
		addr = v.clients[i].Addr // a renewing client's address is the string on file
	} else {
		v.m.granted++
	}
	if string(addr) != string(edgeAddr) {
		addr = transport.Addr(edgeAddr)
	}
	v.setClient(clientLease{Seed: peerview.Seed{ID: src, Addr: addr}, expires: v.env.Now() + dur})
	if v.cfg.IslandMerge {
		for _, el := range m.Elements() {
			if el.Namespace != leaseNS || el.Name != elemRumor {
				continue
			}
			if r, ok := peerview.ParseRumorBytes(el.Data); ok {
				v.maybeMerge(v.learnRumor(r))
			}
		}
	}
	rsp := message.Acquire()
	if dur == v.cfg.LeaseDuration {
		rsp.AddString(leaseNS, elemGranted, v.leaseText)
	} else {
		rsp.AddScratch(leaseNS, elemGranted, strconv.AppendInt(rsp.Scratch(), int64(dur), 10))
	}
	if v.cfg.SelfHeal {
		v.appendGrantState(rsp)
	}
	if v.cfg.IslandMerge {
		v.appendGrantRumors(rsp, src)
	}
	_ = v.sendLease(src, rsp)
}

// receiveCancel drops the lease of a departing edge.
func (v *server) receiveCancel(src ids.ID) {
	if i, held := v.client(src); held {
		v.m.cancelled++
		v.clients = slices.Delete(v.clients, i, i+1)
	}
}

// appendGrantState attaches the self-healing snapshots to a lease grant:
// up to maxAlternates peerview members and up to maxRoster client roster
// entries (the lowest-ID fresh clients), both in ascending ID order.
func (v *server) appendGrantState(m *message.Out) {
	for i := 0; i < v.pv.Size() && i < maxAlternates; i++ {
		m.AddScratch(leaseNS, elemAlt, v.pv.Member(i).AppendEncode(m.Scratch()))
	}
	n := 0
	for _, cl := range v.clients {
		if n == maxRoster {
			break
		}
		if v.fresh(cl) {
			m.AddScratch(leaseNS, elemClient, cl.AppendEncode(m.Scratch()))
			n++
		}
	}
}

// appendGrantRumors attaches tier rumors to a grant (IslandMerge): this
// rendezvous, its view members and the rumor store, deduplicated in that
// order and capped at maxRumors — the rendezvous→edge half of the gossip.
func (v *server) appendGrantRumors(m *message.Out, src ids.ID) {
	var sent [maxRumors]ids.ID
	n := 0
	emit := func(sd peerview.Seed) {
		if n >= maxRumors || sd.Addr == "" || sd.ID.Equal(src) {
			return
		}
		for _, id := range sent[:n] {
			if id.Equal(sd.ID) {
				return
			}
		}
		sent[n] = sd.ID
		n++
		m.AddScratch(leaseNS, elemRumor, peerview.NewRumor(sd).AppendEncode(m.Scratch()))
	}
	emit(peerview.Seed{ID: v.ep.ID(), Addr: v.ep.Addr()})
	for i := 0; i < v.pv.Size(); i++ {
		emit(v.pv.Member(i))
	}
	// Draw only the budget left after self and members, so the window
	// cursor advances by what was consumed and the store's tail circulates
	// on later grants.
	head, wrapped := v.rumors.nextWindow(maxRumors - n)
	for _, run := range [2][]rumorRecord{head, wrapped} {
		for _, r := range run {
			emit(r.Seed)
		}
	}
}

// handoff sends the lease table and, through the handoff hook, the SRDI
// index to a successor and redirects every other client to it.
func (v *server) handoff() {
	succ, ok := v.chooseHandoffSuccessor()
	if !ok {
		return
	}
	v.learnRoute(succ)
	// 1. The lease table. An edge successor promotes itself on receipt.
	hm := leaseMessage(elemHandoff, "1")
	now := v.env.Now()
	for _, cl := range v.clients {
		if !v.fresh(cl) || cl.ID.Equal(succ.ID) {
			continue
		}
		rec := cl.AppendEncode(hm.Scratch())
		hm.AddScratch(leaseNS, elemClient, strconv.AppendInt(append(rec, ' '), int64(cl.expires-now), 10))
	}
	_ = v.sendLease(succ.ID, hm)
	v.m.handoffs++
	v.traceEvent("handoff", succ.ID)
	// 2. The other services' state (discovery pushes the SRDI index).
	if v.handoffFn != nil {
		v.handoffFn(succ.ID)
	}
	// 3. Redirect the remaining fresh clients to the successor.
	for _, cl := range v.clients {
		if cl.ID.Equal(succ.ID) || cl.expires <= now {
			continue
		}
		v.sendRedirect(cl.ID, succ)
	}
}

// chooseHandoffSuccessor prefers a view neighbour (the upper, else the
// lower), already a rendezvous, and falls back to the lowest-ID fresh client,
// the one pickSuccessor would elect from a roster of them.
func (v *server) chooseHandoffSuccessor() (succ peerview.Seed, ok bool) {
	lower, upper := v.pv.Neighbors()
	want := upper
	if want.IsNil() {
		want = lower
	}
	if !want.IsNil() {
		if member, ok := v.pv.Lookup(want); ok {
			return member, true
		}
	}
	for _, cl := range v.clients {
		if v.fresh(cl) {
			return cl.Seed, true
		}
	}
	return peerview.Seed{}, false
}

// sendRedirect tells an edge to re-lease with succ.
func (v *server) sendRedirect(edge ids.ID, succ peerview.Seed) {
	m := message.Acquire()
	m.AddScratch(leaseNS, elemRedirect, succ.AppendEncode(m.Scratch()))
	_ = v.sendLease(edge, m)
}

// importHandoff takes a predecessor's lease table into the client table.
func (v *server) importHandoff(m *message.Message) {
	now := v.env.Now()
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS || el.Name != elemClient {
			continue
		}
		sd, left, ok := peerview.ParseRecordBytes(el.Data)
		if !ok || sd.ID.Equal(v.ep.ID()) {
			continue
		}
		remaining, err := strconv.ParseInt(string(left), 10, 64)
		if err != nil || remaining <= 0 {
			continue
		}
		// What is left of a lease is no more than a whole one.
		remaining = min(remaining, int64(v.cfg.LeaseDuration))
		v.learnRoute(sd)
		v.setClient(clientLease{Seed: sd.Clone(), expires: now + time.Duration(remaining)})
	}
}

// --- Island merge (IslandMerge) ---

// maybeMerge sends a tier probe to a rumored peer and stamps its record,
// unless the store refused the rumor (rec is nil), the peer is already a
// view member or it was probed recently. The probe — not a direct merge —
// makes *every* remembered identity a potential bridge: a rendezvous answers
// with itself, a leased edge with its island's anchor, a dead peer not at
// all. The retry backoff is one renewal period: a peer that is dead or still
// an edge now may anchor an island later.
func (v *server) maybeMerge(rec *rumorRecord) {
	if rec == nil || !v.cfg.IslandMerge || !v.started {
		return
	}
	sd := rec.Seed
	if sd.ID.Equal(v.ep.ID()) || v.pv.Contains(sd.ID) {
		return
	}
	retry := time.Duration(float64(v.cfg.LeaseDuration) * renewFraction)
	now := v.env.Now()
	if rec.stamped && now-rec.tried < retry {
		return
	}
	rec.tried, rec.stamped = now, true
	v.learnRoute(sd)
	m := leaseMessage(elemTierProbe, "1")
	m.AddScratch(leaseNS, elemRumor, v.selfRumor().AppendEncode(m.Scratch()))
	_ = v.sendLease(sd.ID, m)
}

// retryMerges re-probes every rumored identity not yet in the view, rate
// limited by maybeMerge: the anchor of an island nobody leases with keeps
// asking everyone it ever heard of until one answers or redirects it.
func (v *server) retryMerges() {
	for i := 0; i < v.rumors.Len(); i++ {
		v.maybeMerge(&v.rumors.recs[i])
	}
}

// answerProbe remembers a tier prober, considers probing it back, and
// names this rendezvous.
func (v *server) answerProbe(prober peerview.Rumor, proberOK bool) (peerview.Rumor, bool) {
	if proberOK {
		v.maybeMerge(v.learnRumor(prober))
	}
	return v.selfRumor(), true
}

// receiveTierAck consumes a tier probe answer: an answer naming the sender
// is a confirmed live rendezvous — merge with it now; an answer naming a
// third peer is a redirect to that island's anchor — learn it and let the
// probe cycle reach it.
func (v *server) receiveTierAck(src ids.ID, rumor []byte) {
	if !v.started || !v.cfg.IslandMerge {
		return
	}
	r, ok := peerview.ParseRumorBytes(rumor)
	if !ok {
		return
	}
	rec := v.learnRumor(r)
	if rec == nil {
		return
	}
	if !r.ID.Equal(src) {
		v.maybeMerge(rec) // redirect: probe the named anchor next
		return
	}
	if !v.pv.Contains(r.ID) {
		rec.tried, rec.stamped = v.env.Now(), true
		v.pv.Merge(rec.Seed) // the store's address is its own; the peerview routes to it
	}
}

// onPeerviewMerge completes a merge handshake leg: remember the counterpart
// for onward gossip, send it our roster to reconcile duplicate leases, and
// call the merge hook.
func (v *server) onPeerviewMerge(peer ids.ID) {
	if !v.started {
		return
	}
	v.m.merges++
	v.traceEvent("island-merge", peer)
	if sd := v.tierSeed(peer); sd.Addr != "" {
		v.rumorStore().add(peerview.NewRumor(sd))
	}
	v.sendMergeRoster(peer)
	if v.mergeFn != nil {
		v.mergeFn(peer)
	}
}

// tierSeed resolves a tier member's address from the peerview (post-merge
// the counterpart is a member) or the rumor store.
func (v *server) tierSeed(id ids.ID) peerview.Seed {
	if sd, ok := v.pv.Lookup(id); ok {
		return sd
	}
	return v.rumorSeed(id)
}

// sendMergeRoster ships the fresh client roster to the merge counterpart.
func (v *server) sendMergeRoster(peer ids.ID) {
	m := leaseMessage(elemMergeRst, "1")
	n := 0
	for _, cl := range v.clients {
		if !v.fresh(cl) || cl.ID.Equal(peer) {
			continue
		}
		m.AddScratch(leaseNS, elemClient, cl.AppendEncode(m.Scratch()))
		n++
	}
	if n == 0 {
		m.Release()
		return // nothing to reconcile from this side
	}
	_ = v.sendLease(peer, m)
}

// receiveMergeRoster reconciles duplicate client leases after a merge: the
// lowest-ID rendezvous wins, and the other drops its (possibly stale,
// adopted) entry and redirects the client to the winner, as a graceful
// handoff does. Each side handles only its own losing case.
func (v *server) receiveMergeRoster(src ids.ID, m *message.Message) {
	if !v.started || !v.cfg.IslandMerge {
		return
	}
	if !src.Less(v.ep.ID()) {
		return // the counterpart drops and redirects when it sees our roster
	}
	now := v.env.Now()
	winner := v.tierSeed(src)
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS || el.Name != elemClient {
			continue
		}
		sd, ok := peerview.ParseSeedBytes(el.Data)
		if !ok || sd.ID.Equal(v.ep.ID()) {
			continue
		}
		i, dup := v.client(sd.ID)
		if !dup || v.clients[i].expires <= now {
			continue
		}
		held := v.clients[i].Seed
		v.clients = slices.Delete(v.clients, i, i+1)
		v.learnRoute(held)
		v.sendRedirect(sd.ID, winner)
	}
}
