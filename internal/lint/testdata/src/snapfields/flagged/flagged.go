// Package flagged exercises snapfields on one-walk snapshot sections: a
// field the walk never mentions, a skipfield exemption, a field only the
// walk's load-only block touches, coverage that flows through a
// same-package helper, and state sitting beside wiring.
package flagged

import (
	"press/internal/cnet"
	"press/internal/snapio"
)

type Counter struct {
	n       uint64
	peak    uint64 // want `field peak of snapshot type Counter is missing from the snapshot walk`
	slot    int    // assigned, not moved: restore wiring beside the field it follows still counts
	scratch []byte //availlint:skipfield scratch rebuilt lazily by the next observation
}

func (c *Counter) SnapState(x *snapio.Ctx) {
	x.U64(&c.n)
	if !x.Saving() {
		c.slot = int(c.n)
	}
}

// inner is serialized only through a helper: the closure walk must reach
// snapInner from Outer's walk to see its coverage.
type inner struct {
	x int
	y int // want `field y of snapshot type inner is missing from the snapshot walk`
}

type Outer struct {
	in inner
}

func (o *Outer) SnapState(x *snapio.Ctx) { snapInner(x, &o.in) }

func snapInner(x *snapio.Ctx, in *inner) { snapio.Int(x, &in.x) }

// restore has no context parameter and no walk calls it: what it touches
// is not coverage.
func (o *Outer) restore() { o.in.y = 0 }

// Timer's callback is exempt by its type; the counter beside it is state
// like any other, and so is a struct that mixes the two, or a pointer to
// a pool (a record's home, which says where the record lives).
type Timer struct {
	at      int
	fn      func()
	retries int      // want `field retries of snapshot type Timer is missing from the snapshot walk`
	armed   struct { // want `field armed of snapshot type Timer is missing from the snapshot walk`
		fn func()
		on bool
	}
	home *cnet.MsgPool[Timer] // want `field home of snapshot type Timer is missing from the snapshot walk`
	// A func beside its name is wiring; with a counter beside both it is not.
	byName []struct { // want `field byName of snapshot type Timer is missing from the snapshot walk`
		name string
		fn   func()
		hits int
	}
}

func (t *Timer) SnapState(x *snapio.Ctx) { snapio.Int(x, &t.at) }
