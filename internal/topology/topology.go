// Package topology generates the seed-graph shapes used by the paper's
// deployments (§4.1 tested chains and trees; a star is included as the
// degenerate single-seed shape). A topology here is the bootstrap wiring —
// which already-deployed rendezvous each new rendezvous probes first; the
// peerview protocol then gossips the full membership regardless of the
// initial shape, which is exactly the paper's observation ("this initial
// parameter has no significant influence on the peerview behavior").
package topology

import (
	"errors"
	"fmt"
)

// Kind enumerates the supported seed-graph shapes.
type Kind int

// The supported topologies.
const (
	// Chain: peer i seeds on peer i-1.
	Chain Kind = iota
	// Tree: peer i seeds on its parent (i-1)/treeFanout.
	Tree
	// Star: every peer seeds on peer 0.
	Star
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Chain:
		return "chain"
	case Tree:
		return "tree"
	case Star:
		return "star"
	}
	return fmt.Sprintf("topology(%d)", int(k))
}

// ParseKind resolves a topology name.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "chain":
		return Chain, nil
	case "tree":
		return Tree, nil
	case "star":
		return Star, nil
	}
	return 0, fmt.Errorf("topology: unknown kind %q", name)
}

// ErrBadShape reports invalid generation parameters.
var ErrBadShape = errors.New("topology: invalid parameters")

// treeFanout is the number of children of each Tree node.
const treeFanout = 2

// Seeds returns, for each of n peers, the indices of the peers it seeds on.
// Peer 0 is always the root with no seeds; every other peer seeds only on
// lower-indexed peers, so the graph is acyclic and bootstrappable in
// deployment order.
func Seeds(kind Kind, n int) ([][]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadShape, n)
	}
	out := make([][]int, n)
	for i := 1; i < n; i++ {
		switch kind {
		case Chain:
			out[i] = []int{i - 1}
		case Tree:
			out[i] = []int{(i - 1) / treeFanout}
		case Star:
			out[i] = []int{0}
		default:
			return nil, fmt.Errorf("%w: kind %v", ErrBadShape, kind)
		}
	}
	return out, nil
}

// PlaceSites maps numSites simulation sites onto shards (round-robin),
// returning assign[site] = shard. Placement is site-granular on purpose:
// every peer of a site — each rendezvous and the edges leasing from it,
// which deployments attach at their rendezvous's site — lands on one shard,
// so the short intra-site latency never constrains the conservative
// lookahead window; only inter-site links cross shards. With fewer sites
// than shards the extra shards simply stay empty, so callers clamp shards
// to numSites.
func PlaceSites(numSites, shards int) []int {
	if shards < 1 {
		shards = 1
	}
	assign := make([]int, numSites)
	for i := range assign {
		assign[i] = i % shards
	}
	return assign
}
