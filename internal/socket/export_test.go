package socket

import "time"

// ZeroState reports whether the service holds no allocated table, the state
// New leaves it in (tests).
func (s *Service) ZeroState() bool { return s.listeners == nil && s.conns == nil }

// Listening reports how many listeners are bound (tests).
func (s *Service) Listening() int { return len(s.listeners) }

// GiveUpAfter returns how long a connection retransmits into silence before
// it fails with ErrTimeout: currentRTO summed over retries 0..maxRetries
// (tests).
func GiveUpAfter() time.Duration {
	c := &Conn{}
	var total time.Duration
	for ; c.retries <= maxRetries; c.retries++ {
		total += c.currentRTO()
	}
	return total
}
