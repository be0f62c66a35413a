//go:build loancheck

package transport

// loanCheck scribbles over every delivered message as its loan ends
// (message.Loan.End): go test -tags loancheck ./... Sim then copies fixed
// payloads too, so that the scribble reaches every payload a handler saw
// and never the sender's own bytes.
const loanCheck = true
