package discovery

import (
	"crypto/sha1"
	"encoding/binary"
	"math/bits"

	"jxta/internal/ids"
	"jxta/internal/peerview"
)

// The LC-DHT replica function (§3.3 of the paper):
//
//	hash = SHA-1(tuple)
//	pos  = floor(hash * l / MAX_HASH)
//	return peerview entry at position pos
//
// where l is the size of the local peerview and the tuple string is the
// concatenation of advertisement type, index attribute name and value
// (e.g. "PeerNameTest", the paper's Table 1 example with hash 116 and
// MAX_HASH 200 mapping to position 3).

// ReplicaPos computes floor(hash*l/maxHash) with arbitrary maxHash — the
// exact arithmetic of the paper's worked example. It panics if maxHash is 0;
// results are clamped into [0, l).
func ReplicaPos(hash, maxHash uint64, l int) int {
	if maxHash == 0 {
		panic("discovery: MAX_HASH must be positive")
	}
	if l <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(hash, uint64(l))
	pos, _ := bits.Div64(hi, lo, maxHash)
	if pos >= uint64(l) {
		pos = uint64(l) - 1 // hash == maxHash edge case
	}
	return int(pos)
}

// KeyHash is the production hash: the first 8 bytes (big endian) of the
// SHA-1 digest of the tuple string. MAX_HASH is then 2^64 (the 160-bit
// digest truncated to its top 64 bits keeps the distribution uniform).
func KeyHash[K string | []byte](key K) uint64 {
	sum := sha1.Sum([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// replicaPos64 is ReplicaPos specialized to MAX_HASH = 2^64: the high word
// of the 128-bit product hash*l is exactly floor(hash*l/2^64).
func replicaPos64(hash uint64, l int) int {
	if l <= 0 {
		return 0
	}
	hi, _ := bits.Mul64(hash, uint64(l))
	return int(hi)
}

// replicaOf applies the replica function to a peer's ordered peerview, which
// includes the local peer (§3.3), indexed in place, and returns the
// rendezvous responsible for the key.
func replicaOf[K string | []byte](pv *peerview.PeerView, key K) ids.ID {
	return pv.ViewAt(replicaPos64(KeyHash(key), pv.Size()+1))
}
