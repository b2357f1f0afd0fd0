package qmon

import (
	"press/internal/cnet"
	"press/internal/snapio"
)

// SnapState moves the per-peer verdicts. The thresholds are constants,
// the callbacks construction arguments, and the generator is the owning
// component's, which moves it.
func (m *Monitor) SnapState(x *snapio.Ctx) {
	snapio.Map(x, m.state, 1<<16, func(id *cnet.NodeID, ps **peerState) {
		if !x.Saving() {
			*ps = new(peerState)
		}
		snapio.Int(x, id)
		x.Bool(&(*ps).rerouting)
		x.Bool(&(*ps).failed)
	})
}
