// Package ids implements JXTA-style identifiers.
//
// JXTA identifies every abstraction (peers, peer groups, advertisements,
// pipes, module classes) with a UUID-derived URN of the form
//
//	urn:jxta:uuid-<hex>
//
// The peerview protocol keeps rendezvous peers in a list ordered by peer ID,
// and the LC-DHT replica function maps SHA-1 hashes onto positions of that
// ordered list, so IDs must provide a stable total order and hashing helpers.
package ids

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Kind distinguishes the JXTA ID namespaces.
type Kind byte

const (
	// KindPeer identifies a peer.
	KindPeer Kind = iota + 1
	// KindGroup identifies a peer group.
	KindGroup
	// KindAdv identifies an advertisement instance.
	KindAdv
	// KindPipe identifies a pipe.
	KindPipe
	// KindModule identifies a module class.
	KindModule
	// KindQuery identifies a resolver query.
	KindQuery
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPeer:
		return "peer"
	case KindGroup:
		return "group"
	case KindAdv:
		return "adv"
	case KindPipe:
		return "pipe"
	case KindModule:
		return "module"
	case KindQuery:
		return "query"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// ID is a JXTA identifier: a kind tag plus a 16-byte UUID payload.
// The zero value is the nil ID.
type ID struct {
	kind Kind
	uuid [16]byte
}

// Nil is the zero ID. It is not a member of any namespace.
var Nil ID

// ErrBadID reports a malformed textual ID.
var ErrBadID = errors.New("ids: malformed JXTA ID")

// NewRandom draws a fresh ID of the given kind from rng. Experiments use
// per-node seeded generators so that overlays are reproducible; passing a nil
// rng panics rather than silently falling back to a global source.
func NewRandom(kind Kind, rng *rand.Rand) ID {
	if rng == nil {
		panic("ids: NewRandom requires a seeded *rand.Rand")
	}
	var u [16]byte
	binary.BigEndian.PutUint64(u[0:8], rng.Uint64())
	binary.BigEndian.PutUint64(u[8:16], rng.Uint64())
	// Set UUID version (4) and variant bits like RFC 4122 so that the
	// textual form looks like a genuine JXTA UUID URN.
	u[6] = (u[6] & 0x0f) | 0x40
	u[8] = (u[8] & 0x3f) | 0x80
	return ID{kind: kind, uuid: u}
}

// fromNameRoom is the stack buffer FromName hashes from: the kind's rune,
// the colon and a name of up to about 60 bytes.
const fromNameRoom = 64

// FromName derives a stable ID of the given kind from a human-readable name
// (SHA-1 based, like JXTA's well-known group IDs): the hash of the kind as a
// UTF-8 rune, a colon and the name. The input is written into a buffer on
// the stack, so a name that fits allocates nothing.
func FromName(kind Kind, name string) ID {
	var room [fromNameRoom]byte
	sum := sha1.Sum(append(append(utf8.AppendRune(room[:0], rune(kind)), ':'), name...))
	var u [16]byte
	copy(u[:], sum[:16])
	return ID{kind: kind, uuid: u}
}

// IsNil reports whether the ID is the zero ID.
func (id ID) IsNil() bool { return id == Nil }

// Compare orders IDs first by UUID payload, then by kind. The peerview
// protocol relies on this order being total and stable. The payload is
// compared as two big-endian words, which orders it exactly as comparing its
// bytes does; the peerview's binary searches run it on every lookup.
func (id ID) Compare(other ID) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(id.uuid[:8]), binary.BigEndian.Uint64(other.uuid[:8])); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint64(id.uuid[8:]), binary.BigEndian.Uint64(other.uuid[8:])); c != 0 {
		return c
	}
	return cmp.Compare(id.kind, other.kind)
}

// Prefix returns the UUID's leading 32 bits: a.Prefix() < b.Prefix() implies
// a.Compare(b) < 0, so a sorted view can order by it before comparing IDs.
func (id ID) Prefix() uint32 { return binary.BigEndian.Uint32(id.uuid[:4]) }

// Less reports whether id orders strictly before other.
func (id ID) Less(other ID) bool { return id.Compare(other) < 0 }

// Equal reports whether two IDs are identical.
func (id ID) Equal(other ID) bool { return id == other }

// String renders the canonical URN form, e.g.
// "urn:jxta:uuid-5B7D…-peer". The kind suffix is a readability extension;
// Parse accepts both suffixed and plain forms.
func (id ID) String() string {
	// One allocation, no second copy: IDs are stringified on most message
	// constructions. Nothing else references b, so it can become the string.
	b := id.AppendString(make([]byte, 0, 56))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendString appends the canonical URN form (see String) to dst and
// returns the extended slice. It allocates nothing when dst has room, so a
// sender can render a URN into scratch space it reuses across messages.
func (id ID) AppendString(dst []byte) []byte {
	if id.IsNil() {
		return append(dst, "urn:jxta:nil"...)
	}
	dst = append(dst, "urn:jxta:uuid-"...)
	dst = hex.AppendEncode(dst, id.uuid[:])
	dst = append(dst, '-')
	return append(dst, id.kind.String()...)
}

// Short returns an abbreviated form (first 8 hex digits) for logs and plots.
func (id ID) Short() string { return string(id.AppendShort(make([]byte, 0, 8))) }

// AppendShort appends the abbreviated form (see Short) to dst.
func (id ID) AppendShort(dst []byte) []byte {
	if id.IsNil() {
		return append(dst, "nil"...)
	}
	return hex.AppendEncode(dst, id.uuid[:4])
}

// ParseBytes is Parse for a URN held as bytes — a message element read in
// place. It does not retain b and allocates nothing on success.
func ParseBytes(b []byte) (ID, error) {
	// Parse keeps no reference to its argument (a returned error formats a
	// copy), so viewing b as a string for the duration of the call is safe.
	return Parse(unsafe.String(unsafe.SliceData(b), len(b)))
}

// Parse decodes the canonical URN form produced by String.
func Parse(s string) (ID, error) {
	if s == "urn:jxta:nil" {
		return Nil, nil
	}
	const prefix = "urn:jxta:uuid-"
	if !strings.HasPrefix(s, prefix) {
		return Nil, fmt.Errorf("%w: %q lacks %q prefix", ErrBadID, s, prefix)
	}
	rest := s[len(prefix):]
	hexPart := rest
	kind := Kind(0)
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		hexPart = rest[:i]
		switch rest[i+1:] {
		case "peer":
			kind = KindPeer
		case "group":
			kind = KindGroup
		case "adv":
			kind = KindAdv
		case "pipe":
			kind = KindPipe
		case "module":
			kind = KindModule
		case "query":
			kind = KindQuery
		default:
			return Nil, fmt.Errorf("%w: unknown kind suffix %q", ErrBadID, rest[i+1:])
		}
	}
	var u [16]byte
	if !decodeHex32(&u, hexPart) {
		return Nil, fmt.Errorf("%w: bad uuid payload in %q", ErrBadID, s)
	}
	if kind == 0 {
		kind = KindPeer // plain form defaults to the peer namespace
	}
	return ID{kind: kind, uuid: u}, nil
}

// decodeHex32 decodes exactly 32 hex digits into u without allocating.
func decodeHex32(u *[16]byte, s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < 16; i++ {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		u[i] = hi<<4 | lo
	}
	return true
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// MarshalText implements encoding.TextMarshaler.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// SortIDs sorts a slice of IDs in ascending Compare order, in place.
func SortIDs(s []ID) { slices.SortFunc(s, ID.Compare) }
