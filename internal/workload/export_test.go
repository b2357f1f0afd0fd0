package workload

import "time"

// Test hooks for the external test package: census reads that need the
// generator's unexported state.

// CompleteCancelled returns how many complete timeouts were stopped
// before they fired.
func (g *Generator) CompleteCancelled() uint64 { return g.completeCancelled }

// CompleteTimeout returns a request's complete timeout.
func (g *Generator) CompleteTimeout() time.Duration { return completeTimeout }

// Connecting returns the undecided requests still waiting for their dial
// result — offered, but with no complete timeout armed yet.
func (g *Generator) Connecting() int {
	n := 0
	for _, r := range g.reqLive {
		if !r.done && r.conn == nil {
			n++
		}
	}
	return n
}
