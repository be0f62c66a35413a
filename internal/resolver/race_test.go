//go:build race

package resolver

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, on purpose, so an exact allocation count means nothing.
const raceEnabled = true
