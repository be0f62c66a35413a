//go:build loancheck

package transport

// loanCheck scribbles over every delivered message as its loan ends
// (message.Loan.End): go test -tags loancheck ./...
const loanCheck = true
