// Package routing defines the routing layer the §3.3 comparison is
// measured through. The paper frames JXTA's loosely-consistent DHT as a
// middle point between unstructured flooding (JXTA 1.0) and structured DHTs
// (Chord-class, Kademlia-class): this package pins that claim down with one
// seam, Backend.
//
// Backend is the overlay-level surface the bake-off experiments drive:
// publish a key, look a key up with hop/latency/success accounting, and
// force maintenance rounds. Four backends implement it at equal scale, each
// directly, with no adapter between: the iterative Kademlia overlay
// (kademlia.go), a static Chord ring (internal/chord), flooding
// (internal/flood) and the SRDI walk, which is the full JXTA stack and is
// built in internal/experiments, which owns the stack. All four run on each
// member's own endpoint and peer resolver: every message pays the same
// envelope, and every open request lives in its originator's resolver,
// with the resolver's deadline. The comparison is steady-state
// routing cost, as §3.3's is: no member fails, and the baselines have no
// failure model. The JXTA stack's behaviour under failure is measured
// where the stack runs (the churn, recovery and volatility experiments).
package routing

import (
	"math/bits"
	"time"

	"jxta/internal/discovery"
	"jxta/internal/ids"
)

// Result is the per-operation accounting every backend reports.
type Result struct {
	// OK reports whether the operation definitively succeeded (a lookup
	// found the key; a publish placed it). A callback that never fires is
	// also a failure — harnesses impose their own deadline on top.
	OK bool
	// Hops is the routing depth: resolver forwards for the SRDI walk,
	// ring forwards for Chord, graph distance for flooding, and the
	// iteration depth at which the value was found for Kademlia.
	Hops int
	// Latency is the virtual time from issue to completion.
	Latency time.Duration
}

// Backend is one deployed routing overlay under bake-off measurement.
// Nodes are addressed by deployment index [0, N).
type Backend interface {
	// Publish places key on the overlay, originating at node from. The
	// settling traffic (replication, iterative store) runs inside the
	// harness's subsequent Run window.
	Publish(from int, key string)
	// Lookup resolves key from node from; cb fires at most once with the
	// operation accounting. A lookup that cannot complete (no holder
	// reachable) may simply never call back.
	Lookup(from int, key string, cb func(Result))
}

// KeyHash maps a tuple key into the 64-bit identifier space shared by every
// structured backend: the LC-DHT replica function's own digest
// (discovery.KeyHash), so every backend places a key where SRDI does.
func KeyHash(key string) uint64 { return discovery.KeyHash(key) }

// IDHash maps a JXTA peer ID into the same 64-bit space (Kademlia k-buckets
// hash peer IDs, not raw key strings).
func IDHash(id ids.ID) uint64 { return KeyHash(id.String()) }

// BucketIndex returns the k-bucket index of contact relative to self: the
// number of leading bits they share. Bucket 0 holds the most distant half
// of the space. Equal keys have no bucket; callers filter self first.
func BucketIndex(self, contact uint64) int {
	return bits.LeadingZeros64(self ^ contact)
}
