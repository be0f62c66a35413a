package node

// Edge hibernation. A steady-state edge — lease held, renewal timer armed,
// no pending queries, no streams, empty cache — spends minutes of simulated
// time completely idle. Nearly all of what it is made of needs no help to be
// small: the endpoint keeps its service and route tables in exact-size
// slices, the transport its FIFO clamp in one slice entry, and the services
// above them (cache, resolver, rendezvous client, discovery, pipe, socket)
// allocate no map until first written and hold none while idle, so their
// idle state is their zero state. Nothing is packed, pooled or rebuilt. One
// thing does not shrink by itself, and hibernation exists for it: the node's
// math/rand register (~5.4 KB/edge), which FreezeRand drops, keeping only
// the stream position.
//
// After every dispatch on the node (timer callback or inbound delivery) the
// settle hook asks every service whether it is quiescent and, if all agree,
// drops the register and trims the services — Trim returns a map that a wake
// filled and emptied again to nil, which no delete site does on its own, so
// peers that never hibernate do not reallocate a map per operation.
// Execution re-enters a node in exactly two ways — an env.After callback or
// an inbound endpoint delivery — and both are bracketed by wake/settle
// hooks (simnet.NodeEnv.SetHibernation and endpoint.SetHibernation); the
// RNG rehydrates lazily on first draw, and nothing else has a second form,
// so experiment drivers calling into a hibernated node directly are safe.
//
// Settling never cancels or re-arms a timer, never allocates IDs, never
// reorders events and resumes the RNG stream where it stopped, so a
// hibernating run's event trajectory and wire traffic are byte-identical
// to a never-hibernating run. The golden-trajectory suite replays every
// experiment with hibernation forced on to prove it.
//
// Only edge-role nodes freeze: a rendezvous runs the peerview and LC-DHT
// and is permanently hot, matching the paper's super-peer asymmetry.

// hibEnv is the engine support hibernation needs from the node's env; the
// simulator's NodeEnv implements it, real-clock envs do not (a live
// process has no reason to freeze-dry nodes).
type hibEnv interface {
	SetHibernation(wake, settle func())
	FreezeRand()
	RandResident() bool
}

// hibernator tracks one node's hibernation state.
type hibernator struct {
	env     hibEnv
	frozen  bool
	wakes   uint64
	freezes uint64
}

// EnableHibernation arms hibernation for this node. Must run before the
// node starts (hooks wrap callbacks armed after installation). Reports
// whether the env supports it; calling twice is a no-op.
func (n *Node) EnableHibernation() bool {
	if n.hib != nil {
		return true
	}
	he, ok := n.Env.(hibEnv)
	if !ok {
		return false
	}
	n.hib = &hibernator{env: he}
	he.SetHibernation(n.hibWake, n.hibSettle)
	n.Endpoint.SetHibernation(n.hibWake, n.hibSettle)
	return true
}

// hibWake marks the node live. Rehydration itself is lazy — the RNG
// register is rebuilt on the first draw during the dispatch — so waking
// costs two stores, and a dispatch that draws nothing (a discovery push
// tick on an idle edge) re-freezes for free.
func (n *Node) hibWake() {
	if h := n.hib; h != nil && h.frozen {
		h.frozen = false
		h.wakes++
	}
}

// hibSettle freeze-dries the node if every service is quiescent — the
// Quiescent predicates together are the definition of an idle node. Runs
// after every dispatch on a hibernation-enabled node; the checks are a
// handful of len() reads.
func (n *Node) hibSettle() {
	h := n.hib
	if h == nil || h.frozen || n.PeerView != nil {
		return
	}
	if !n.Endpoint.Quiescent() || !n.Resolver.Quiescent() ||
		!n.Rendezvous.Quiescent() || !n.Discovery.Quiescent() ||
		!n.Pipe.Quiescent() || !n.Socket.Quiescent() || !n.Cache.Quiescent() {
		return
	}
	n.Endpoint.Trim()
	n.Resolver.Trim()
	n.Rendezvous.Trim()
	n.Discovery.Trim()
	n.Pipe.Trim()
	n.Socket.Trim()
	n.Cache.Trim()
	h.env.FreezeRand()
	h.frozen = true
	h.freezes++
}

// Hibernating reports whether the node is currently freeze-dried.
func (n *Node) Hibernating() bool { return n.hib != nil && n.hib.frozen }

// HibernationStats returns the cumulative wake and freeze counts (zero
// when hibernation is not enabled).
func (n *Node) HibernationStats() (wakes, freezes uint64) {
	if n.hib == nil {
		return 0, 0
	}
	return n.hib.wakes, n.hib.freezes
}
