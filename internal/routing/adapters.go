package routing

import (
	"time"

	"jxta/internal/chord"
	"jxta/internal/flood"
)

// ChordBackend adapts the static Chord ring (internal/chord) to Backend.
// Lookup success is verified against the owner's store: a routed-to owner
// that never recorded the key reports OK=false rather than counting a
// reachable-but-empty node as a hit.
type ChordBackend struct {
	Ring  *chord.Ring
	nodes []*chord.Node
}

// NewChordBackend wraps a built ring.
func NewChordBackend(r *chord.Ring) *ChordBackend {
	return &ChordBackend{Ring: r, nodes: r.Nodes()}
}

// Publish implements Backend.
func (b *ChordBackend) Publish(from int, key string) {
	b.Ring.Store(b.nodes[from], KeyHash(key), nil)
}

// Lookup implements Backend.
func (b *ChordBackend) Lookup(from int, key string, cb func(Result)) {
	hash := KeyHash(key)
	b.Ring.Lookup(b.nodes[from], hash, func(_ uint64, hops int, elapsed time.Duration) {
		ok := b.Ring.Owner(hash).Stored(hash)
		cb(Result{OK: ok, Hops: hops, Latency: elapsed})
	})
}

// Maintain implements Backend: the ring is static by construction (the
// paper's classical-DHT comparisons assume a static network), so there is
// no maintenance protocol to run.
func (b *ChordBackend) Maintain() {}

// FloodBackend adapts the JXTA-1.0-style flooding overlay to Backend.
type FloodBackend struct {
	Net   *flood.Network
	nodes []*flood.Node
}

// NewFloodBackend wraps a built flooding overlay.
func NewFloodBackend(f *flood.Network) *FloodBackend {
	return &FloodBackend{Net: f, nodes: f.Nodes()}
}

// Publish implements Backend: flooding publishes locally only (its O(1)
// publish / O(n) query trade-off, inverted from the LC-DHT).
func (b *FloodBackend) Publish(from int, key string) { b.nodes[from].Publish(key) }

// Lookup implements Backend. The TTL is the overlay size: the bake-off
// measures full-coverage flooding, not bounded-horizon variants.
func (b *FloodBackend) Lookup(from int, key string, cb func(Result)) {
	b.Net.Query(b.nodes[from], key, len(b.nodes), func(hops int, elapsed time.Duration) {
		cb(Result{OK: true, Hops: hops, Latency: elapsed})
	})
}

// Maintain implements Backend: the flood graph is static, nothing to do.
func (b *FloodBackend) Maintain() {}
