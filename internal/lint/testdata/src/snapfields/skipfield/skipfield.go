// Package skipfield is the snapfields false-positive guard: every
// uncovered field carries a skipfield annotation (both placement forms:
// end of line and the line above), so no field is reported. An annotation
// on a field the walk already moves exempts nothing, and is reported.
package skipfield

import "press/internal/snapio"

type Res struct {
	n int
	m int //availlint:skipfield m moved by the walk // want `availlint:skipfield m exempts nothing`
	//availlint:skipfield cache rebuilt on first access after restore
	cache map[int]int
	pool  []int //availlint:skipfield pool free list; empty after restore is behaviorally identical
}

func (r *Res) SnapState(x *snapio.Ctx) {
	snapio.Int(x, &r.n)
	snapio.Int(x, &r.m)
}
