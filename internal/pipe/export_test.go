package pipe

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
