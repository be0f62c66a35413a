//go:build !loancheck

package transport

const loanCheck = false
