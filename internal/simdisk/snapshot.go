package simdisk

import (
	"slices"

	"press/internal/snapio"
)

// Snapshot support. A continuation cannot be serialized, and need not be:
// every operation in the array holds the record that owns it, which its
// own section defined in ctx.Owners, so an operation travels as that
// record's id and a loaded one is handed the record back — the same value
// the live path calls. An owner no section defined (a closure behind
// Array.Read) makes the capture fail.

// gone owns what a dead process incarnation left in the array (see
// snapio.Ctx.Owner): its callbacks reached only that incarnation's own
// state, so nothing is what a restored world has them do.
type gone struct{}

func (gone) OwnerGone() bool { return true }
func (gone) DiskDone(bool)   {}
func (gone) DiskSpace()      {}
func (gone) DiskProbe(bool)  {}

// snap moves one read: its document key and the owner its completion
// goes to.
func (o *op) snap(x *snapio.Ctx, what string) {
	snapio.Int(x, &o.key)
	snapio.Owner(x, &o.owner, gone{}, what)
}

// SnapState moves the array: device state, the shared generator, the
// queue, blocked threads, space waiters, and in-service operations
// (claimed from the kernel's pending table, re-armed pinned on load).
// Loading fills a freshly built array. Owner sections must have run
// first.
func (a *Array) SnapState(x *snapio.Ctx) {
	for _, d := range a.disks {
		if d.rng != a.disks[0].rng {
			snapio.Failf("simdisk: devices do not share one generator")
		}
	}
	x.Rand(a.disks[0].rng)
	if nd := x.Len(len(a.disks), 1<<8); nd != len(a.disks) {
		snapio.Failf("simdisk: snapshot has %d devices, world has %d", nd, len(a.disks))
	}
	for _, d := range a.disks {
		x.Bool(&d.faulty)
		x.F64(&d.degraded)
		x.U64(&d.reads)
	}
	snapio.Int(x, &a.idle)
	snapio.Slice(x, &a.queue, 1<<16, func(o *op) { o.snap(x, "simdisk: queued read") })
	for _, d := range a.disks {
		ops := a.blocked[d]
		snapio.Slice(x, &ops, 1<<16, func(o *op) { o.snap(x, "simdisk: blocked read") })
		if !x.Saving() && ops != nil {
			a.blocked[d] = ops
		}
	}
	snapio.Slice(x, &a.onSpace, 1<<16, func(w *SpaceOwner) { snapio.Owner(x, w, gone{}, "simdisk: space waiter") })

	snapio.Pending(x, svcDone, 1<<16, func(r *svcOp) bool { return r.a == a }, func(r *svcOp) *svcOp {
		if r == nil {
			r = &svcOp{a: a}
		}
		idx := slices.Index(a.disks, r.d)
		if snapio.Int(x, &idx); idx < 0 || idx >= len(a.disks) {
			snapio.Failf("simdisk: in-service op on device %d of %d", idx, len(a.disks))
		}
		r.d = a.disks[idx]
		r.o.snap(x, "simdisk: in-service read")
		return r
	})
}

// SnapProbes moves the health checks in flight, which only a world with
// an FME daemon has (and so only its walk calls this): the rounds that
// still have a device to hear from, then each pending device check with
// the round it reports to. A round that has reported calls nobody back
// and names no owner.
func (a *Array) SnapProbes(x *snapio.Ctx) {
	evs := snapio.Claim(x, probeDone, func(op *probeOp) bool { return op.d.arr == a })
	var rounds []*probeRound
	for _, ev := range evs {
		if r := ev.Arg.(*probeOp).round; !slices.Contains(rounds, r) {
			rounds = append(rounds, r)
		}
	}
	snapio.Slice(x, &rounds, 1<<16, func(rp **probeRound) {
		if !x.Saving() {
			*rp = new(probeRound)
		}
		r := *rp
		snapio.Int(x, &r.remaining)
		if x.Bool(&r.reported); r.reported {
			return
		}
		snapio.Owner(x, &r.owner, gone{}, "simdisk: health check")
	})
	for i := range x.Len(len(evs), 1<<16) {
		var ev snapio.PendingEvent
		op := new(probeOp)
		if x.Saving() {
			ev, op = evs[i], evs[i].Arg.(*probeOp)
		}
		x.Slot(&ev)
		dev, round := slices.Index(a.disks, op.d), slices.Index(rounds, op.round)
		snapio.Int(x, &dev)
		snapio.Int(x, &round)
		x.Bool(&op.timedOut)
		if dev < 0 || dev >= len(a.disks) || round < 0 || round >= len(rounds) {
			snapio.Failf("simdisk: health check of device %d for round %d, of %d and %d", dev, round, len(a.disks), len(rounds))
		}
		if !x.Saving() {
			op.d, op.round = a.disks[dev], rounds[round]
			a.sim.RestoreAtArg(ev.At, ev.Seq, probeDone, op)
		}
	}
}
