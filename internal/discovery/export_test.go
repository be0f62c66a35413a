package discovery

import (
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/rendezvous"
	"jxta/internal/resolver"
)

// PushPeriod is the push period (tests).
const PushPeriod = pushInterval

// Tables reports the sizes of the push debt (advertisements not yet pushed
// to the current rendezvous), the queries parked behind their scan cost and
// the query dedup set: -1 for a map that is not allocated, and for parked
// queries when the service has never parked one (tests).
func (s *Service) Tables() (unpushed, parked, seen int) {
	unpushed, parked, seen = len(s.unpushed), -1, len(s.seen)
	if s.unpushed == nil {
		unpushed = -1
	}
	if h := s.hop; h != nil && len(h.parked)+len(h.free) > 0 {
		parked = len(h.parked)
	}
	if s.seen == nil {
		seen = -1
	}
	return unpushed, parked, seen
}

// ReplicaPeer is the replica function over a view given as a list (tests):
// replicaOf over a peerview whose View() is view. An empty view returns the
// nil ID.
func ReplicaPeer(view []ids.ID, key string) ids.ID {
	if len(view) == 0 {
		return ids.Nil
	}
	return view[replicaPos64(KeyHash(key), len(view))]
}

// encodeQuery is an exact-match query in a buffer of its own (tests).
func encodeQuery(advType, attr, value, stage string) []byte {
	return appendQuery(nil, advType, attr, value, stage)
}

// PushTick runs one delta-push tick, as the push ticker does.
func (s *Service) PushTick() { s.pushAll(false) }

// HandleWalk is the walk handler the service registers with the rendezvous
// walker.
func (s *Service) HandleWalk(origin ids.ID, dir rendezvous.Direction, body *message.Message) bool {
	return s.handleWalk(origin, dir, body)
}

// HandleQuery is the resolver handler the service registers.
func (s *Service) HandleQuery(q *resolver.Query) { s.handleQuery(q) }
