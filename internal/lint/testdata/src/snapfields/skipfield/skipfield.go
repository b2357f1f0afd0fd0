// Package skipfield is the snapfields false-positive guard: every
// uncovered field carries a skipfield annotation (both placement forms:
// end of line and the line above), so the package is clean.
package skipfield

import "press/internal/snapio"

type Res struct {
	n int
	//availlint:skipfield cache rebuilt on first access after restore
	cache map[int]int
	pool  []int //availlint:skipfield pool free list; empty after restore is behaviorally identical
}

func (r *Res) SnapState(x *snapio.Ctx) { snapio.Int(x, &r.n) }
