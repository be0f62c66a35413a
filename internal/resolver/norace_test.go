//go:build !race

package resolver

const raceEnabled = false
