// Package advstore interns advertisements by their canonical encoded
// form: every holder of an equal advertisement — the same rendezvous
// advertisement cached in a hundred peerviews, a popular resource
// advertisement cached at every searcher — shares one decoded instance
// instead of keeping a private copy. At 100k-peer populations the
// duplicated decodes dominate cache memory; interning collapses them to
// one per distinct document.
//
// A handle is also the unit that travels. InternBytes takes an
// advertisement straight off the wire, hashes the bytes before decoding
// and returns the existing handle when the document is already held (the
// common case in gossip: the receiver has seen the identical document
// hundreds of times), so such a mention costs one hash and one comparison,
// not a decode and an encode; the peerview stops most of them sooner, at
// its entry's Bytes. Bytes returns a handle's
// canonical encoding for the way out, so the document is encoded once
// however often it is sent. Handles that came from InternBytes retain that
// encoding from the start; handles that came from Intern (a locally
// decoded value, e.g. the discovery cache's unique resource
// advertisements) retain nothing until Bytes is first asked for it.
//
// Neither way builds a document tree. InternBytes reads a miss in place
// (advertisement.DecodeXML). Intern writes the value's encoding
// (advertisement.AppendXML) into a buffer on its stack, keys it, and keeps
// nothing of it, so interning an advertisement the store already holds
// allocates nothing; Bytes writes it once, into one slice of its own.
//
// The store is refcounted: Intern and InternBytes return a handle,
// holders Release it when they evict, and the table forgets an
// advertisement when its last handle is released. Shared advertisements
// and their encodings are read-only by contract.
package advstore

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"

	"jxta/internal/advertisement"
)

// key identifies a canonical encoding: a 128-bit FNV-1a digest plus the
// encoded length. FNV is not collision-resistant and wire bytes come from
// other hosts, so the key only finds the candidate: wherever the handle's
// retained encoding is at hand (always in InternBytes) a hit is confirmed
// byte for byte, and a document that collides with a different one gets a
// private handle instead of an alias. Two locally decoded values meeting
// in Intern, neither with a retained encoding, are matched on the key
// alone — confirming would cost a second encode per cache insert.
type key struct {
	hi, lo uint64
	size   int
}

// FNV-1a, 128 bits: offset basis and prime 2^88 + 0x13b (hash/fnv's
// constants; its hasher allocates, this loop does not).
const (
	fnvOffsetHi   = 0x6c62272e07bb0142
	fnvOffsetLo   = 0x62b821756295c58d
	fnvPrimeLo    = 0x13b
	fnvPrimeShift = 24
)

func fnv128a(data []byte) key {
	hi, lo := uint64(fnvOffsetHi), uint64(fnvOffsetLo)
	for _, c := range data {
		lo ^= uint64(c)
		carry, low := bits.Mul64(fnvPrimeLo, lo)
		hi = carry + lo<<fnvPrimeShift + fnvPrimeLo*hi
		lo = low
	}
	return key{hi: hi, lo: lo, size: len(data)}
}

// oneKey files every encoding under a single key; only the collision test
// sets it. A flag, not a func variable: a call through a variable would make
// keyOf's argument escape, and Intern's stack buffer with it.
var oneKey bool

// keyOf maps an encoding to its table key.
func keyOf(data []byte) key {
	if oneKey {
		return key{}
	}
	return fnv128a(data)
}

// Shared is one interned advertisement: a refcounted handle on the
// canonical decoded instance and, once retained, its canonical encoding.
// Both are shared with every other holder and must not be mutated.
//
// The handle is one 80-byte object (TestSharedFitsItsSizeClass): the
// encoding's slice header is held inline, not behind a pointer of its own,
// and published through state, so a first encode allocates only its bytes.
type Shared struct {
	store *Store // nil for private (untabled) handles
	key   key
	adv   advertisement.Advertisement
	// held is the retained canonical encoding: written once, by newShared
	// or by the Bytes call that claims state, and read only once state
	// reads encoded.
	held  []byte
	refs  int32 // guarded by store.mu
	state atomic.Uint32
}

// Shared.state: a handle's encoding is unset, being written by the one
// Bytes call that claimed it, or set and never replaced.
const (
	unencoded uint32 = iota
	encoding
	encoded
)

// Store is one interning table. The zero value is not usable; use New.
// Safe for concurrent use: sharded simulations intern from parallel
// shard goroutines.
type Store struct {
	mu     sync.Mutex
	byKey  map[key]*Shared
	hits   uint64
	misses uint64
}

// New builds an empty store.
func New() *Store { return &Store{byKey: make(map[key]*Shared)} }

// defaultStore is the process-wide table behind Default.
var defaultStore = New()

// Default returns the process-wide store: node.New's fallback for a node
// configured without a store of its own (live nodes, ROADMAP 5(e)).
func Default() *Store { return defaultStore }

// encodeRoom is the stack buffer an advertisement is encoded into to find
// its key: room for all but the largest resources.
const encodeRoom = 512

// Intern returns a handle on the canonical instance equal to adv,
// adopting adv itself as the canonical instance when none exists yet.
// The caller owns one reference and must Release it on eviction. The
// encoding computed to find the instance is written on the stack and not
// retained, so interning an advertisement the store holds allocates
// nothing. An advertisement that fails to encode gets a private (untabled)
// handle, so the API never errors on the caller.
func (s *Store) Intern(adv advertisement.Advertisement) *Shared {
	var room [encodeRoom]byte
	enc, err := advertisement.AppendXML(room[:0], adv)
	if err != nil {
		return &Shared{adv: adv, refs: 1}
	}
	return s.intern(adv, enc, nil)
}

// InternBytes returns a handle on the canonical instance of the
// advertisement encoded in wire, decoding it only when the store does
// not hold it yet. On a miss the document is read (advertisement.DecodeXML,
// the strict form only) and re-encoded, and the handle is filed under (and
// retains) that canonical encoding. wire is only read and never retained.
// Malformed bytes return the decoder's error and leave the store untouched.
func (s *Store) InternBytes(wire []byte) (*Shared, error) {
	k := keyOf(wire)
	s.mu.Lock()
	if sh, ok := s.byKey[k]; ok && bytes.Equal(sh.Bytes(), wire) {
		sh.refs++
		s.hits++
		s.mu.Unlock()
		return sh, nil
	}
	s.mu.Unlock()
	adv, err := advertisement.DecodeXML(wire)
	if err != nil {
		return nil, err
	}
	enc, err := advertisement.EncodeXML(adv)
	if err != nil {
		return nil, err
	}
	return s.intern(adv, enc, enc), nil
}

// intern files adv under its canonical encoding enc, which it only reads:
// enc may be the caller's stack buffer. keep, if not nil, is enc again in a
// slice of the caller's own, which a new handle retains; a separate
// parameter, so that enc does not escape.
func (s *Store) intern(adv advertisement.Advertisement, enc, keep []byte) *Shared {
	k := keyOf(enc)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh, ok := s.byKey[k]; ok {
		held := sh.retained()
		if keep != nil {
			held = sh.Bytes()
		}
		if held != nil && !bytes.Equal(held, enc) {
			// A different document under the same key: never alias.
			s.misses++
			return newShared(nil, k, adv, keep)
		}
		sh.refs++
		s.hits++
		return sh
	}
	sh := newShared(s, k, adv, keep)
	s.byKey[k] = sh
	s.misses++
	return sh
}

// newShared builds a handle holding one reference, retaining the encoding
// keep unless it is nil.
func newShared(s *Store, k key, adv advertisement.Advertisement, keep []byte) *Shared {
	sh := &Shared{store: s, key: k, adv: adv, refs: 1}
	if keep != nil {
		sh.held = keep
		sh.state.Store(encoded)
	}
	return sh
}

// retained returns the handle's encoding if one is set, nil if not.
func (sh *Shared) retained() []byte {
	if sh.state.Load() == encoded {
		return sh.held
	}
	return nil
}

// Adv returns the canonical instance. Read-only by contract: it is
// shared with every other holder of an equal advertisement.
func (sh *Shared) Adv() advertisement.Advertisement { return sh.adv }

// Bytes returns the canonical encoding of the advertisement, the exact
// bytes advertisement.EncodeXML(sh.Adv()) produces. It is encoded at most
// once per handle and shared from then on: read-only by contract, safe to
// hand to message.Add without copying. Nil for an advertisement that
// cannot be encoded. Safe for concurrent use.
func (sh *Shared) Bytes() []byte {
	if held := sh.retained(); held != nil {
		return held
	}
	enc, err := advertisement.EncodeXML(sh.adv)
	if err != nil {
		return nil
	}
	// The encoding is deterministic, so a racer that loses the claim
	// returns its own copy of the same bytes.
	if sh.state.CompareAndSwap(unencoded, encoding) {
		sh.held = enc
		sh.state.Store(encoded)
	}
	return enc
}

// Release drops one reference; the table forgets the advertisement when
// the last reference goes. Releasing more than retained panics — that is
// always a bookkeeping bug.
func (sh *Shared) Release() {
	if sh.store == nil {
		return
	}
	s := sh.store
	s.mu.Lock()
	sh.refs--
	freed := sh.refs < 0
	if sh.refs == 0 {
		delete(s.byKey, sh.key)
	}
	s.mu.Unlock()
	if freed {
		panic("advstore: Release of an already-freed handle")
	}
}

// Len reports the number of distinct interned advertisements.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Stats reports interning effectiveness: hits returned an existing
// canonical instance, misses adopted a new one.
func (s *Store) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
