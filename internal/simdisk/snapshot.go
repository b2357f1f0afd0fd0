package simdisk

import (
	"slices"

	"press/internal/snapio"
)

// Snapshot support. Callbacks (op completions, space notifications)
// cannot be serialized; every Read and NotifySpace is tagged with an
// owner record (SetNextOwner) that is defined in ctx.Owners by its own
// section and re-supplies the callbacks on load through the interfaces
// below.

// ReadOwner re-supplies the completion callback of a restored read.
type ReadOwner interface {
	RestoreDiskDone() func(ok bool)
}

// SpaceOwner re-supplies the callback of a restored NotifySpace
// registration.
type SpaceOwner interface {
	RestoreDiskNotify() func()
}

// gone owns what a dead process incarnation left in the array (see
// snapio.Ctx.Owner): its callbacks reached only that incarnation's own
// state, so nothing is what a restored world has them do.
type gone struct{}

func (gone) OwnerGone() bool                      { return true }
func (gone) RestoreDiskDone() func(ok bool)       { return func(bool) {} }
func (gone) RestoreDiskNotify() func()            { return func() {} }
func (gone) RestoreDiskProbe() func(healthy bool) { return func(bool) {} }

// owner moves an operation's owner tag.
func owner(x *snapio.Ctx, o *any, what string) {
	if x.Owner(o, what); *o == nil {
		*o = gone{}
	}
}

// snap moves one read: its document key and the owner its completion
// comes back from.
func (o *op) snap(x *snapio.Ctx, what string) {
	snapio.Int(x, &o.key)
	owner(x, &o.owner, what)
	if !x.Saving() {
		ro, ok := o.owner.(ReadOwner)
		if !ok {
			snapio.Failf("simdisk: op owner %T cannot restore a read", o.owner)
		}
		o.done = ro.RestoreDiskDone()
	}
}

// SnapState moves the array: device state, the shared generator, the
// queue, blocked threads, space waiters, and in-service operations
// (claimed from the kernel's pending table, re-armed pinned on load).
// Loading fills a freshly built array. Owner sections must have run
// first.
func (a *Array) SnapState(x *snapio.Ctx) {
	if a.nextOwner != nil {
		snapio.Failf("simdisk: owner tag %T set and not consumed: snapshot taken inside an event", a.nextOwner)
	}
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
	snapio.Slice(x, &a.onSpace, 1<<16, func(cb *spaceCb) {
		owner(x, &cb.owner, "simdisk: space waiter")
		if !x.Saving() {
			so, ok := cb.owner.(SpaceOwner)
			if !ok {
				snapio.Failf("simdisk: space waiter %T cannot restore", cb.owner)
			}
			cb.fn = so.RestoreDiskNotify()
		}
	})

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

// ProbeOwner re-supplies the verdict callback of a restored Probe.
type ProbeOwner interface {
	RestoreDiskProbe() func(healthy bool)
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
		owner(x, &r.owner, "simdisk: health check")
		if !x.Saving() {
			po, ok := r.owner.(ProbeOwner)
			if !ok {
				snapio.Failf("simdisk: probe owner %T cannot restore a health check", r.owner)
			}
			r.done = po.RestoreDiskProbe()
		}
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
