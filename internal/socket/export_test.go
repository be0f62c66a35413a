package socket

import "time"

// ZeroState reports whether the service holds no allocated table, the state
// New leaves it in (tests).
func (s *Service) ZeroState() bool { return s.listeners == nil && s.conns == nil }

// Listening reports how many listeners are bound (tests).
func (s *Service) Listening() int { return len(s.listeners) }

// GiveUpAfter returns how long a connection of s retransmits into silence
// before it fails with ErrTimeout: currentRTO summed over retries
// 0..MaxRetries (tests).
func GiveUpAfter(s *Service) time.Duration {
	c := &Conn{svc: s}
	var total time.Duration
	for ; c.retries <= s.cfg.MaxRetries; c.retries++ {
		total += c.currentRTO()
	}
	return total
}
