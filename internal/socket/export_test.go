package socket

// ZeroState reports whether the service holds no allocated table, the state
// New leaves it in (tests).
func (s *Service) ZeroState() bool { return s.listeners == nil && s.conns == nil }

// Listening reports how many listeners are bound (tests).
func (s *Service) Listening() int { return len(s.listeners) }
