package faults

import (
	"sort"

	"press/internal/snapio"
)

// Snapshot support. Active faults serialize as (slot, flap spec, whether
// the effect is currently applied, pending toggle identity). The effect
// itself lives in the target subsystems (link state, disk fault flags,
// machine state) and is restored with them; a load therefore moves the
// applied bit WITHOUT re-imposing the effect, and re-arms the flap toggle
// pinned at its exact kernel slot.

// ActiveAt returns the active fault occupying (t, c), or nil. The chaos
// runner's restore path uses it to re-link its per-entry Active handles
// to the injector records the injector's walk rebuilt.
func (in *Injector) ActiveAt(t Type, c int) *Active { return in.active[slot{t, c}] }

// SnapState moves the active fault set, in slot order; loading, into a
// freshly built injector over equivalent targets.
func (in *Injector) SnapState(x *snapio.Ctx) {
	actives := make([]*Active, 0, len(in.active))
	for _, a := range in.active {
		actives = append(actives, a)
	}
	sort.Slice(actives, func(i, j int) bool {
		if actives[i].Type != actives[j].Type {
			return actives[i].Type < actives[j].Type
		}
		return actives[i].Component < actives[j].Component
	})
	snapio.Slice(x, &actives, 1<<12, func(ap **Active) {
		if !x.Saving() {
			*ap = &Active{in: in}
		}
		a := *ap
		snapio.Int(x, &a.Type)
		snapio.Int(x, &a.Component)
		if t, c := a.Type, a.Component; !x.Saving() && (t < 0 || t >= numTypes || c < 0 ||
			c >= max(1, typeMetas[t].comps(len(in.t.Machines), 2, in.t.Frontend != nil))) {
			snapio.Failf("faults: active fault %d on component %d, which these targets do not have", t, c)
		}
		snapio.Int(x, &a.Flap.On)
		snapio.Int(x, &a.Flap.Off)
		x.F64(&a.Severity)
		snapio.Int(x, &a.Group)
		x.Bool(&a.applied)
		if t := snapio.Event(x, toggle, a); !x.Saving() {
			a.timer = t
			key := slot{a.Type, a.Component}
			if _, dup := in.active[key]; dup {
				snapio.Failf("faults: duplicate active slot %v/%d in snapshot", a.Type, a.Component)
			}
			in.active[key] = a
		}
	})
}
