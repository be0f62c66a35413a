//go:build race

// Package israce reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is put into it, on purpose, so the
// allocation gates over paths that use pooled messages (message.Out) mean
// nothing and skip themselves.
package israce

// Enabled is true in a -race build.
const Enabled = true
