package rendezvous

import (
	"slices"
	"strconv"
	"time"

	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/peerview"
)

// client is the edge's half of the lease protocol: it holds a lease on one
// rendezvous and renews it, rotates through its seeds and the alternates
// grants carry when the rendezvous stops answering, and, with SelfHeal,
// elects a successor from the roster or goes dormant. It lives inside its
// Service; a promotion zeroes it.
type client struct {
	*core
	seeds   []peerview.Seed
	seedIdx int
	// The two IDs are 17 bytes each, aligned to one: with the three flags
	// they fill 40 bytes, where each ID alone is padded to 24.
	connectedTo  ids.ID
	grantTarget  ids.ID // the peer the armed grant timer waits on
	awaitingSucc bool   // targeting the elected successor exclusively
	dormant      bool   // failover budget exhausted; Connect revives
	elected      bool   // the election picked this peer: Promote adopts the roster

	renewTimer env.Event // the next lease request: the first, or a renewal
	grantTimer env.Event
	// requestFn and timeoutFn are what those two timers run, each bound once,
	// on first arm, so that re-arming a timer builds no closure.
	requestFn func()
	timeoutFn func()

	// Self-healing state (SelfHeal).
	alternates   []peerview.Seed // rendezvous' peerview, from the last grant
	roster       []peerview.Seed // co-clients of the lease holder, sorted by ID
	failCount    int             // unanswered lease requests in the current phase
	episodeFails int             // unanswered requests since the last grant
	succTarget   peerview.Seed
}

func (c *client) start() { c.renewTimer = c.requestAfter(0) }

// halt cancels the timers and the lease, telling the rendezvous when
// graceful.
func (c *client) halt(graceful bool) {
	c.cancelTimers()
	if !c.connectedTo.IsNil() {
		if graceful {
			_ = c.sendLease(c.connectedTo, leaseMessage(elemCancelled, "1"))
		}
		c.setConnected(ids.Nil)
	}
}

func (c *client) cancelTimers() {
	c.renewTimer.Cancel()
	c.grantTimer.Cancel()
	c.grantTimer = env.Event{} // quiescent: no attempt in flight
}

// reset, after a halt, keeps only the seeds and the bound timer callbacks:
// the rotation rewinds to the first seed and the snapshots are forgotten.
func (c *client) reset() {
	*c = client{core: c.core, seeds: c.seeds, requestFn: c.requestFn, timeoutFn: c.timeoutFn}
}

func (c *client) quiescent() bool { return c.grantTimer == (env.Event{}) && !c.awaitingSucc }

// connect requests a lease now, with a fresh failover budget.
func (c *client) connect() {
	c.dormant = false
	c.awaitingSucc = false
	c.failCount = 0
	c.episodeFails = 0
	c.requestLease()
}

// requestAfter arms a timer that asks for a lease: the first request, and
// every renewal. requestLease itself ignores a stopped service.
func (c *client) requestAfter(d time.Duration) env.Event {
	if c.requestFn == nil {
		c.requestFn = c.requestLease
	}
	return c.env.After(d, c.requestFn)
}

func (c *client) setConnected(rdv ids.ID) {
	if c.connectedTo.Equal(rdv) {
		return
	}
	old := c.connectedTo
	c.connectedTo = rdv
	if !old.IsNil() {
		c.traceEvent("lease-lost", old)
	}
	if !rdv.IsNil() {
		c.traceEvent("lease-acquired", rdv)
	}
	for _, l := range c.listeners {
		if !old.IsNil() {
			l(old, false)
		}
		if !rdv.IsNil() {
			l(rdv, true)
		}
	}
}

// The edge's failover rotation is the configured seeds followed by the
// alternates learned from lease grants (the peerview fallback) that are not
// seeds themselves. It is read where it lies: a request builds no list.

func (c *client) isSeed(id ids.ID) bool {
	return slices.ContainsFunc(c.seeds, func(sd peerview.Seed) bool { return sd.ID.Equal(id) })
}

// candidateAt returns entry i of the rotation, wrapping around; false when
// the rotation is empty.
func (c *client) candidateAt(i int) (peerview.Seed, bool) {
	n := len(c.seeds)
	for _, alt := range c.alternates {
		if !c.isSeed(alt.ID) {
			n++
		}
	}
	if n == 0 {
		return peerview.Seed{}, false
	}
	if i %= n; i < len(c.seeds) {
		return c.seeds[i], true
	}
	i -= len(c.seeds)
	for _, alt := range c.alternates {
		if c.isSeed(alt.ID) {
			continue
		}
		if i == 0 {
			return alt, true
		}
		i--
	}
	return peerview.Seed{}, false // unreachable: i < n
}

// candidate returns the rotation's entry for id, or the bare ID when the
// rotation no longer lists it.
func (c *client) candidate(id ids.ID) peerview.Seed {
	for _, list := range [2][]peerview.Seed{c.seeds, c.alternates} {
		for _, sd := range list {
			if sd.ID.Equal(id) {
				return sd
			}
		}
	}
	return peerview.Seed{ID: id}
}

// requestLease asks the current candidate for a lease and arms the failover
// timer.
func (c *client) requestLease() {
	if !c.started || c.dormant {
		return
	}
	var target peerview.Seed
	switch {
	case c.awaitingSucc:
		target = c.succTarget
	case !c.connectedTo.IsNil():
		// Renewal: stick with the current lease holder regardless of how
		// the candidate rotation shifted as alternates were learned.
		target = c.candidate(c.connectedTo)
	default:
		var ok bool
		if target, ok = c.candidateAt(c.seedIdx); !ok {
			return
		}
	}
	c.learnRoute(target)
	// A still-armed grant timer belongs to a superseded request (Connect
	// during an in-flight attempt): cancel it, or its orphaned timeout
	// would later tear down whatever lease this request establishes.
	c.grantTimer.Cancel()
	m := leaseMessage(elemRequest, c.leaseText)
	if c.cfg.SelfHeal {
		// Share our address so the rendezvous can roster us to co-clients.
		m.AddString(leaseNS, elemAddr, string(c.ep.Addr()))
	}
	if c.cfg.IslandMerge {
		// Piggyback a rotating window of the tier identities we remember:
		// the request is the edge→rendezvous gossip channel that bridges
		// islands, and rotation guarantees every stored identity — however
		// large the store grew — reaches the rendezvous eventually.
		head, wrapped := c.rumors.nextWindow(maxRumors)
		for _, run := range [2][]rumorRecord{head, wrapped} {
			for _, r := range run {
				if r.ID.Equal(target.ID) {
					continue // the target knows itself
				}
				m.AddScratch(leaseNS, elemRumor, r.AppendEncode(m.Scratch()))
			}
		}
	}
	_ = c.sendLease(target.ID, m) // a failed send times out like a lost one
	c.m.requests++
	delay := c.cfg.ResponseTimeout
	if c.awaitingSucc {
		// The elected successor may detect the failure minutes after us
		// (renewal schedules differ); back off instead of burning the
		// budget before it even promotes.
		delay <<= uint(min(c.failCount, 3))
	}
	if c.timeoutFn == nil {
		c.timeoutFn = func() { c.onLeaseTimeout(c.grantTarget) }
	}
	c.grantTarget = target.ID
	c.grantTimer = c.env.After(delay, c.timeoutFn)
}

// episodePhases bounds the total attempts of one disconnected episode, in
// units of FailoverAttempts: the initial candidate rotation plus a handful
// of elected-successor waits with rotation fallbacks in between. Past it
// the edge goes dormant no matter what — retries are hard-bounded.
const episodePhases = 8

// onLeaseTimeout fires when no grant arrived: the candidate is presumed
// dead. Drop the stale connection (if this was a renewal), rotate to the
// next candidate while the phase budget lasts, then heal — an exhausted
// successor wait prunes the dead successor from the roster and falls back
// to the rotation, so the next election picks the next candidate — or go
// dormant once the episode budget is gone. It needs no check that the
// timer is still current: receiveGrant cancels it under the same
// serialization, and a canceled env timer never runs, live or simulated.
func (c *client) onLeaseTimeout(target ids.ID) {
	c.grantTimer = env.Event{}
	c.m.timeouts++
	c.traceEvent("lease-timeout", target)
	if c.connectedTo.Equal(target) {
		c.setConnected(ids.Nil)
	}
	c.seedIdx++
	c.failCount++
	c.episodeFails++
	if c.episodeFails >= c.cfg.FailoverAttempts*episodePhases {
		c.awaitingSucc = false
		c.dormant = true // hard stop; Connect revives with a fresh budget
		c.traceEvent("dormant", ids.Nil)
		return
	}
	if c.failCount < c.cfg.FailoverAttempts {
		c.requestLease()
		return
	}
	if c.awaitingSucc {
		// The elected successor never answered: it is dead too. Strike it
		// from the roster and fall back to the rotation; when that exhausts,
		// the next election picks the next-best candidate — possibly us.
		c.awaitingSucc = false
		c.roster = slices.DeleteFunc(c.roster, func(sd peerview.Seed) bool { return sd.ID.Equal(c.succTarget.ID) })
		c.failCount = 0
		c.requestLease()
		return
	}
	c.electAndHeal()
}

// electAndHeal runs the deterministic successor election over the last
// known client roster once every candidate stopped answering. The elected
// client promotes itself, and its server half adopts the co-clients it
// knew; everyone else re-targets the successor exclusively, with a second,
// backed-off attempt budget. Without SelfHeal or a roster the edge goes
// dormant.
func (c *client) electAndHeal() {
	if !c.cfg.SelfHeal || len(c.roster) == 0 {
		c.dormant = true
		c.traceEvent("dormant", ids.Nil)
		return
	}
	succ := pickSuccessor(c.roster)
	c.m.elections++
	c.traceEvent("election", succ.ID)
	if succ.ID.Equal(c.ep.ID()) {
		if c.promoteFn == nil {
			c.dormant = true
			return
		}
		c.elected = true
		c.promoteFn() // the node's role swap, synchronous: Promote zeroes c
		c.elected = false
		return
	}
	c.succTarget = succ
	c.awaitingSucc = true
	c.failCount = 0
	if c.cfg.IslandMerge {
		// The elected successor is a promoted-tier identity worth gossiping
		// even if it never answers us: another island may reach it.
		c.rumorStore().add(peerview.NewRumor(succ))
	}
	c.requestLease()
}

// receiveGrant takes up the lease src granted and arms its renewal.
func (c *client) receiveGrant(src ids.ID, granted []byte, m *message.Message) {
	if !c.started {
		return // grant raced our Stop: arm nothing
	}
	v, err := strconv.ParseInt(string(granted), 10, 64)
	if err != nil || v <= 0 {
		return
	}
	// A rendezvous grants what was asked for or less; one that promises more
	// does not get to keep this edge from renewing on its own schedule.
	dur := min(time.Duration(v), c.cfg.LeaseDuration)
	c.grantTimer.Cancel()
	c.grantTimer = env.Event{}
	c.failCount = 0
	c.episodeFails = 0
	c.awaitingSucc = false
	c.dormant = false
	c.setConnected(src)
	c.learnGrantState(m)
	c.renewTimer.Cancel()
	c.renewTimer = c.requestAfter(time.Duration(float64(dur) * renewFraction))
}

// learnGrantState ingests the snapshots a self-healing grant carries. The
// grant is authoritative: one that carries alternates or a roster replaces
// both lists, one that carries neither leaves both. Every record is read in
// place and compared with the entry the last grant left at its position, so
// a grant that repeats the last one — a renewal's nearly always does — is
// learned without copying anything.
func (c *client) learnGrantState(m *message.Message) {
	alts, roster := 0, 0
	for _, el := range m.Elements() {
		if el.Namespace != leaseNS {
			continue
		}
		switch el.Name {
		case elemAlt:
			if sd, ok := peerview.ParseSeedBytes(el.Data); ok {
				c.alternates = setSeedAt(c.alternates, alts, sd)
				alts++
				if c.cfg.IslandMerge {
					c.rumorStore().add(peerview.NewRumor(sd)) // alternates are tier identities too
				}
			}
		case elemClient:
			if sd, ok := peerview.ParseSeedBytes(el.Data); ok {
				c.roster = setSeedAt(c.roster, roster, sd)
				roster++
				if c.cfg.IslandMerge && !sd.ID.Equal(c.ep.ID()) {
					// Co-clients are bridge pointers: a tier probe to one
					// inside another island redirects us to its anchor.
					c.rumorStore().add(peerview.NewRumor(sd))
				}
			}
		case elemRumor:
			if !c.cfg.IslandMerge {
				continue
			}
			if r, ok := peerview.ParseRumorBytes(el.Data); ok {
				c.learnRumor(r)
			}
		}
	}
	if alts > 0 || roster > 0 {
		c.alternates = c.alternates[:alts]
		c.roster = c.roster[:roster]
	}
}

// setSeedAt makes sd entry i of list, 0 ≤ i ≤ len(list), reusing the backing
// array. sd is a view of a loaned message: the entry already there is kept
// when it reads the same, and otherwise gets an address of its own.
func setSeedAt(list []peerview.Seed, i int, sd peerview.Seed) []peerview.Seed {
	if i == len(list) {
		return append(list, sd.Clone())
	}
	if list[i] != sd {
		list[i] = sd.Clone()
	}
	return list
}

// receiveRedirect re-targets this edge's lease at the successor a
// gracefully stopping rendezvous (SelfHeal) or a merge reconciliation
// loser (IslandMerge) named — accepted whenever either machinery that can
// send redirects is enabled.
func (c *client) receiveRedirect(src ids.ID, val []byte) {
	if !c.started || !(c.cfg.SelfHeal || c.cfg.IslandMerge) {
		return
	}
	succ, ok := peerview.ParseSeedBytes(val)
	if !ok || succ.ID.Equal(c.ep.ID()) {
		return
	}
	c.cancelTimers()
	c.m.redirects++
	c.traceEvent("redirect", succ.ID)
	if c.connectedTo.Equal(src) {
		c.setConnected(ids.Nil)
	}
	c.succTarget = succ.Clone()
	c.awaitingSucc = true
	c.failCount = 0
	c.dormant = false
	if c.cfg.IslandMerge {
		c.rumorStore().add(peerview.NewRumor(succ))
	}
	c.requestLease()
}

// answerProbe remembers a tier prober and answers with this edge's anchor,
// when it holds a lease and knows the anchor's address. A dormant edge
// revives instead: only rendezvous send tier probes, so the probe proves a
// live anchor exists, and the woken edge gossips its old island's
// identities to it on its first renewal. A mid-failover edge is already
// looking for a lease.
func (c *client) answerProbe(prober peerview.Rumor, proberOK bool) (peerview.Rumor, bool) {
	if proberOK {
		c.learnRumor(prober)
	}
	switch {
	case !c.connectedTo.IsNil():
		if sd := c.rumorSeed(c.connectedTo); sd.Addr != "" {
			return peerview.NewRumor(sd), true
		}
	case c.dormant && proberOK:
		c.succTarget = prober.Seed.Clone()
		c.awaitingSucc = true
		c.failCount = 0
		c.episodeFails = 0
		c.dormant = false
		c.requestLease()
	}
	return peerview.Rumor{}, false
}
