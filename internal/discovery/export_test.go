package discovery

import (
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/rendezvous"
)

// The push period and the default advertisement lifetime (tests).
const (
	PushPeriod    = pushInterval
	TupleLifetime = advLifetime
)

// Tables reports the sizes of the push debt (advertisements not yet pushed
// to the current rendezvous), the scan-cost timer table and the query dedup
// set, -1 for one that is not allocated (tests).
func (s *Service) Tables() (unpushed, costTimers, seen int) {
	unpushed, costTimers, seen = len(s.unpushed), len(s.costTimers), len(s.seen)
	if s.unpushed == nil {
		unpushed = -1
	}
	if s.costTimers == nil {
		costTimers = -1
	}
	if s.seen == nil {
		seen = -1
	}
	return unpushed, costTimers, seen
}

// PushTick runs one delta-push tick, as the push ticker does.
func (s *Service) PushTick() { s.pushAll(false) }

// HandleWalk is the walk handler the service registers with the rendezvous
// walker.
func (s *Service) HandleWalk(origin ids.ID, dir rendezvous.Direction, body *message.Message) bool {
	return s.handleWalk(origin, dir, body)
}
