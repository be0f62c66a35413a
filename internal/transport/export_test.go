package transport

import "time"

// SetHelloTimeout shortens the deadline an accepted connection has for its
// hello frame; it applies to connections accepted from now on.
func (t *TCP) SetHelloTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.helloTimeout = d
}

// SetWriteTimeout shortens the deadline of each frame's Write.
func (t *TCP) SetWriteTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeTimeout = d
}
