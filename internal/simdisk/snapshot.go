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

// snap moves one read: its document key and the owner its completion
// comes back from.
func (o *op) snap(x *snapio.Ctx, what string) {
	snapio.Int(x, &o.key)
	x.Owner(&o.owner, what)
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
		x.Owner(&cb.owner, "simdisk: space waiter")
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
