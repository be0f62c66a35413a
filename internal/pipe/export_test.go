package pipe

import (
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/rendezvous"
)

// Tables reports the sizes of the binding table and the propagation dedup
// set, -1 for one that is not allocated (tests).
func (s *Service) Tables() (bound, propSeen int) {
	bound, propSeen = len(s.bound), len(s.propSeen)
	if s.bound == nil {
		bound = -1
	}
	if s.propSeen == nil {
		propSeen = -1
	}
	return bound, propSeen
}

// HandlePropagateWalk is the walk handler the service registers with the
// rendezvous walker.
func (s *Service) HandlePropagateWalk(origin ids.ID, dir rendezvous.Direction, body *message.Message) bool {
	return s.handlePropagateWalk(origin, dir, body)
}
