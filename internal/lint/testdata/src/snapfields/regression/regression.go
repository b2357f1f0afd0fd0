// Package regression pins the PR 6 bug class as a fixture: a copy of a
// real snapshot type (internal/faults.Active's serialized shape) grows a
// field — lastToggle — without the walk being extended. snapfields must
// catch exactly this, once, so adding a field to a snapshot type without
// serializing it is a lint-gate failure, not a silent replay divergence
// discovered mid-campaign.
package regression

import (
	"time"

	"press/internal/snapio"
)

// active mirrors internal/faults.Active's serialized shape; lastToggle
// is the deliberately added unserialized field.
type active struct {
	typ        int
	component  int
	flapOn     time.Duration
	flapOff    time.Duration
	applied    bool
	lastToggle time.Duration // want `field lastToggle of snapshot type active is missing from the snapshot walk`
}

type injector struct {
	active map[int]*active
}

func (in *injector) SnapState(x *snapio.Ctx) {
	actives := make([]*active, 0, len(in.active))
	for k := 0; k < len(in.active); k++ {
		actives = append(actives, in.active[k])
	}
	snapio.Slice(x, &actives, 1<<12, func(ap **active) {
		if !x.Saving() {
			*ap = &active{}
		}
		a := *ap
		snapio.Int(x, &a.typ)
		snapio.Int(x, &a.component)
		snapio.Int(x, &a.flapOn)
		snapio.Int(x, &a.flapOff)
		x.Bool(&a.applied)
		if !x.Saving() {
			in.active[a.component] = a
		}
	})
}
