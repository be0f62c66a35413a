package peerview

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"jxta/internal/ids"
	"jxta/internal/transport"
)

// The lease protocol's text records: a tier member travels as "id addr", a
// rumor as "id addr sig" (the checksum in lower-case hex, unpadded), a
// handed-off lease as "id addr remaining". Transport addresses contain no
// spaces. Writers append to the scratch of the message being built
// (message.Out); readers scan the payload of a delivered message where it
// lies, and the Seed they return points into it: Addr is a view of the
// record, valid for as long as the record is. A delivered message is on
// loan (transport.Handler), so whoever keeps such a Seed past the handler
// call keeps a Clone — the rendezvous service's rumor store does, on insert.

// Rumor is one gossiped "tier rumor": the identity and address of a peer
// believed to hold (or to have been elected into) the rendezvous role.
// Rumors piggyback on edge traffic — lease requests and grants — so any
// edge that ever contacted two islands becomes a bridge between them. Sig
// is an FNV-1a checksum over the record, standing in for a signature: a
// relay cannot silently corrupt the identity or address in transit without
// the record being dropped on receipt (Verify).
type Rumor struct {
	Seed
	Sig uint64
}

// AppendEncode appends the record "id addr" to dst.
func (sd Seed) AppendEncode(dst []byte) []byte {
	dst = sd.ID.AppendString(dst)
	dst = append(dst, ' ')
	return append(dst, sd.Addr...)
}

// Clone returns sd with an address of its own.
func (sd Seed) Clone() Seed {
	sd.Addr = transport.Addr(strings.Clone(string(sd.Addr)))
	return sd
}

// addrView is b as an address, sharing its bytes.
func addrView(b []byte) transport.Addr {
	return transport.Addr(unsafe.String(unsafe.SliceData(b), len(b)))
}

// ParseSeedBytes reads an "id addr" record in place: the ID is what precedes
// the first space, the address (a view of b, possibly empty) all that
// follows it. A record naming the nil ID is refused: it names no peer.
func ParseSeedBytes(b []byte) (Seed, bool) {
	i := bytes.IndexByte(b, ' ')
	if i < 0 {
		return Seed{}, false
	}
	id, err := ids.ParseBytes(b[:i])
	if err != nil || id.IsNil() {
		return Seed{}, false
	}
	return Seed{ID: id, Addr: addrView(b[i+1:])}, true
}

// ParseRecordBytes reads a three-field record "id addr tail" in place — a
// rumor's tail is its checksum, a handed-off lease's the time it has left.
// The fields are what the strings package's Fields makes of the record:
// separated by runs of white space, exactly three. Addr and tail are views
// of b. A record naming the nil ID is refused: it names no peer.
func ParseRecordBytes(b []byte) (sd Seed, tail []byte, ok bool) {
	var f [3][]byte
	if !threeFields(b, &f) {
		return Seed{}, nil, false
	}
	id, err := ids.ParseBytes(f[0])
	if err != nil || id.IsNil() {
		return Seed{}, nil, false
	}
	return Seed{ID: id, Addr: addrView(f[1])}, f[2], true
}

// threeFields splits b as Fields would and reports whether that made exactly
// three fields. Every record a peer writes is ASCII and is split here; a
// byte past ASCII may begin a Unicode space, and that record is left to the
// library.
func threeFields(b []byte, f *[3][]byte) bool {
	n, start := 0, -1
	for i := 0; i <= len(b); i++ {
		space := i == len(b) // the end of the record ends a field as a space does
		if !space {
			c := b[i]
			if c >= utf8.RuneSelf {
				all := bytes.Fields(b)
				if len(all) != len(f) {
					return false
				}
				copy(f[:], all)
				return true
			}
			space = c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			if n == len(f) {
				return false
			}
			f[n] = b[start:i]
			n++
			start = -1
		}
	}
	return n == len(f)
}

// NewRumor builds a checksummed rumor for the given tier member.
func NewRumor(sd Seed) Rumor { return Rumor{Seed: sd, Sig: rumorSig(sd)} }

// rumorSig computes the record checksum, 64-bit FNV-1a over "id|addr",
// without rendering the record anywhere but the stack.
func rumorSig(sd Seed) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var urn [64]byte // the longest URN, "urn:jxta:uuid-" + 32 digits + "-module", is 53 bytes
	h := uint64(offset64)
	for _, c := range sd.ID.AppendString(urn[:0]) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(sd.Addr); i++ {
		h = (h ^ uint64(sd.Addr[i])) * prime64
	}
	return h
}

// Verify reports whether the checksum matches the record.
func (r Rumor) Verify() bool { return r.Sig == rumorSig(r.Seed) }

// AppendEncode appends the record "id addr sig" to dst.
func (r Rumor) AppendEncode(dst []byte) []byte {
	dst = append(r.Seed.AppendEncode(dst), ' ')
	return strconv.AppendUint(dst, r.Sig, 16)
}

// ParseRumorBytes is the inverse of AppendEncode, read in place: the rumor's
// Addr is a view of b. It rejects malformed records and records whose
// checksum does not verify.
func ParseRumorBytes(b []byte) (Rumor, bool) {
	sd, tail, ok := ParseRecordBytes(b)
	if !ok {
		return Rumor{}, false
	}
	sig, err := strconv.ParseUint(string(tail), 16, 64)
	if err != nil {
		return Rumor{}, false
	}
	r := Rumor{Seed: sd, Sig: sig}
	if !r.Verify() {
		return Rumor{}, false
	}
	return r, true
}
