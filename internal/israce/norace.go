//go:build !race

package israce

const Enabled = false
