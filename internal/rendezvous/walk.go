package rendezvous

import (
	"strconv"

	"jxta/internal/ids"
	"jxta/internal/message"
)

// Walk protocol elements, namespace "walk".
const (
	walkNS      = "walk"
	elemDir     = "Dir" // "up" or "down"
	elemTTL     = "TTL"
	elemSvc     = "Svc"    // target endpoint service at each hop
	elemPayload = "Body"   // embedded message bytes
	elemOrigin  = "Origin" // originating peer (dedup / diagnostics)
	elemWalkID  = "WID"    // walk instance ID
)

// Direction of a peerview walk.
type Direction int

// Walk directions along the ID-sorted peerview.
const (
	Up Direction = iota
	Down
)

// String names the direction.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// WalkHandler consumes a walked message at each visited rendezvous. Returning
// true stops the walk at this peer (the walk found what it was looking for).
//
// body is on loan for the duration of the call, exactly as the delivered
// message it was decoded from is (transport.Handler): the message is taken
// back when the handler returns, and the names and payloads its elements
// point at are views of the delivery, which the transport then reuses. A
// handler copies whatever it keeps.
type WalkHandler func(origin ids.ID, dir Direction, body *message.Message) (stop bool)

// SetWalkHandler installs the per-hop consumer of walks addressed to svc
// (discovery's LC-DHT fallback is the one), replacing any earlier one: at
// every hop a walk whose Svc element names svc is handed to h, and any
// other walk is relayed unhandled. An edge may install it; it runs once the
// peer is a rendezvous.
func (s *Service) SetWalkHandler(svc string, h WalkHandler) {
	s.walkSvc, s.walkFn = svc, h
}

// Walk sends body to the walk handler of up to ttl successive rendezvous
// peers in the given direction along this peer's view of the ID order. The
// local peer is not visited. Rendezvous role only.
func (s *Service) Walk(dir Direction, ttl int, svc string, body *message.Message) {
	if s.srv != nil && ttl > 0 {
		s.srv.walk(dir, ttl, svc, body)
	}
}

// receiveWalk relays a walked message; stopped peers and edges do not.
func (s *Service) receiveWalk(src ids.ID, m *message.Message) {
	if s.started && s.srv != nil {
		s.srv.receiveWalk(src, m)
	}
}

// next returns the view neighbour a walk in direction dir goes to, or Nil.
func (v *server) next(dir Direction) ids.ID {
	lower, upper := v.pv.Neighbors()
	if dir == Down {
		return lower
	}
	return upper
}

func (v *server) walk(dir Direction, ttl int, svc string, body *message.Message) {
	v.m.walks++
	next := v.next(dir)
	if next.IsNil() {
		return
	}
	v.nextWalkID++
	m := message.Acquire()
	m.AddString(walkNS, elemDir, dir.String())
	m.AddScratch(walkNS, elemTTL, strconv.AppendInt(m.Scratch(), int64(ttl), 10))
	m.AddString(walkNS, elemSvc, svc)
	m.AddString(walkNS, elemOrigin, v.ep.IDString())
	wid := append(v.ep.ID().AppendShort(m.Scratch()), '-')
	m.AddScratch(walkNS, elemWalkID, strconv.AppendUint(wid, v.nextWalkID, 10))
	// The body travels as an embedded frame, rendered into the scratch.
	m.AddScratch(walkNS, elemPayload, body.AppendMarshal(m.Scratch()))
	_ = v.ep.Send(next, WalkService, &m.Message)
	m.Release()
}

// walkHeader is the walk: elements of a walk message, read in place: the
// slices alias the message's payloads.
type walkHeader struct {
	dir, ttl, svc, origin, wid, payload []byte
	hasPayload                          bool
}

func readWalkHeader(m *message.Message) (h walkHeader) {
	present := m.Read(walkNS,
		message.Field{Name: elemPayload, Into: &h.payload},
		message.Field{Name: elemDir, Into: &h.dir},
		message.Field{Name: elemTTL, Into: &h.ttl},
		message.Field{Name: elemSvc, Into: &h.svc},
		message.Field{Name: elemOrigin, Into: &h.origin},
		message.Field{Name: elemWalkID, Into: &h.wid})
	h.hasPayload = present&1 != 0 // the first field
	return h
}

// walkSeenLimit bounds the walk dedup set; walks are short-lived, so a
// coarse reset is fine.
const walkSeenLimit = 8192

// maxWalkID is the longest walk ID a node writes: a short peer ID (8 hex
// digits), '-' and a decimal uint64.
const maxWalkID = 8 + 1 + 20

// walkKey is a walk ID as a fixed-size map key, its length and then its
// bytes, so remembering one allocates nothing. It tells apart any two IDs of
// at most maxWalkID bytes.
type walkKey [1 + maxWalkID]byte

// walkKeyOf returns the key of a walk ID, or false for an ID no node writes:
// an empty one or one longer than maxWalkID.
func walkKeyOf(wid []byte) (k walkKey, ok bool) {
	if len(wid) == 0 || len(wid) > maxWalkID {
		return k, false
	}
	k[0] = byte(len(wid))
	copy(k[1:], wid)
	return k, true
}

// receiveWalk consumes a walked message: hand it to the walk handler, then
// forward along the same direction using *this* peer's peerview (each hop
// re-reads its own view, exactly how the LC-DHT fallback walks a partially
// consistent overlay). The header is read as bytes and the embedded body is
// decoded in place into a pooled message, and the dedup key is a value, so a
// relayed hop allocates nothing here but the dedup set's growth.
func (v *server) receiveWalk(src ids.ID, m *message.Message) {
	h := readWalkHeader(m)
	ttl, err := strconv.Atoi(string(h.ttl))
	if err != nil || ttl <= 0 {
		return
	}
	key, ok := walkKeyOf(h.wid)
	if !ok || v.walkSeen[key] {
		return // malformed, or the loop guard on inconsistent views
	}
	if v.walkSeen == nil {
		v.walkSeen = make(map[walkKey]bool)
	}
	v.walkSeen[key] = true
	if len(v.walkSeen) > walkSeenLimit {
		v.walkSeen = nil
	}
	originID, err := ids.ParseBytes(h.origin)
	if err != nil || !h.hasPayload {
		return
	}
	dir := Up
	if string(h.dir) == Down.String() {
		dir = Down
	}
	body := message.Acquire()
	if err := body.UnmarshalAlias(h.payload); err != nil {
		body.Release()
		return
	}
	stop := v.walkFn != nil && string(h.svc) == v.walkSvc && v.walkFn(originID, dir, &body.Message)
	body.Release() // the loan ends here: see WalkHandler
	if stop || ttl <= 1 {
		return
	}
	next := v.next(dir)
	if next.IsNil() || next.Equal(src) {
		return
	}
	// Re-wrap preserving the original origin and walk ID.
	fwd := message.Acquire()
	fwd.AddString(walkNS, elemDir, dir.String())
	fwd.AddScratch(walkNS, elemTTL, strconv.AppendInt(fwd.Scratch(), int64(ttl-1), 10))
	fwd.Add(walkNS, elemSvc, h.svc)
	fwd.AddScratch(walkNS, elemOrigin, originID.AppendString(fwd.Scratch()))
	fwd.Add(walkNS, elemWalkID, h.wid)
	fwd.Add(walkNS, elemPayload, h.payload)
	_ = v.ep.Send(next, WalkService, &fwd.Message)
	fwd.Release()
}
