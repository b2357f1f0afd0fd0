package sim

import (
	"sort"
	"time"
)

// This file is the kernel's snapshot/restore surface. A snapshot captures
// the scheduler's semantic state — the clock, the counters, and every
// pending event's (deadline, sequence) pair — while the physical layout
// (heap shape, arena slots, free lists) is deliberately excluded: pop
// order is a strict total order on (at, seq), so two kernels with the
// same pending set and counters replay identically no matter how their
// arenas are arranged. Owners of pending events (simnet, machine,
// simdisk, workload, chaos) re-arm them with RestoreAt/RestoreAtArg,
// pinning the original (at, seq) so the interleaving — and therefore the
// entire downstream event log — is byte-identical.

// Key returns the (deadline, sequence) identity of a still-pending
// event, the stable name snapshots use for it. ok is false for stale or
// zero handles, mirroring Stop.
func (t Timer) Key() (at time.Duration, seq uint64, ok bool) {
	e := t.e
	if e == nil || e.gen != t.gen || e.slot < 0 {
		return 0, 0, false
	}
	return e.at, e.seq, true
}

// VisitPending calls visit for every pending event in firing order
// (ascending (at, seq)). The callback must not schedule or cancel
// events; snapshot code uses it to let each subsystem claim the pending
// events it owns, and treats any event left unclaimed as a hard save
// error — the completeness check that keeps "what the snapshot captures"
// honest.
func (s *Sim) VisitPending(visit func(at time.Duration, seq uint64, afn func(any), arg any, fn func())) {
	ents := make([]heapEnt, 0, s.npend)
	ents = append(ents, s.cur...)
	for i := range s.l0 {
		ents = append(ents, s.l0[i]...)
	}
	for i := range s.l1 {
		ents = append(ents, s.l1[i]...)
	}
	ents = append(ents, s.overflow...)
	sort.Slice(ents, func(i, j int) bool { return entLess(ents[i], ents[j]) })
	for _, ent := range ents {
		e := s.arena[ent.slot].ev
		visit(e.at, e.seq, e.afn, e.arg, e.fn)
	}
}

// RestoreAt schedules fn with an explicit (at, seq) taken from a
// snapshot. Unlike At it neither clamps at to the current clock nor
// draws from the sequence counter: the caller replays identities minted
// by the snapshotted kernel and separately restores the counter via
// SetCounters.
func (s *Sim) RestoreAt(at time.Duration, seq uint64, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := s.restoreEvent(at, seq)
	e.fn = fn
	return Timer{e: e, gen: e.gen}
}

// RestoreAtArg is RestoreAt for pre-bound callbacks.
func (s *Sim) RestoreAtArg(at time.Duration, seq uint64, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := s.restoreEvent(at, seq)
	e.afn = fn
	e.arg = arg
	return Timer{e: e, gen: e.gen}
}

func (s *Sim) restoreEvent(at time.Duration, seq uint64) *event {
	e := s.alloc()
	e.at = at
	e.seq = seq
	s.push(e)
	return e
}

// Counters returns the kernel counters a snapshot must carry: the
// clock, the next sequence number, the fired-event count and the heap
// high-water mark.
func (s *Sim) Counters() (now time.Duration, seq, fired uint64, maxQ int) {
	return s.now, s.seq, s.fired, s.maxQ
}

// SetCounters restores the kernel counters captured by Counters. Restore
// code calls it after re-arming every pending event, so the maxQ bumps
// incurred during re-arming are overwritten by the snapshotted value.
func (s *Sim) SetCounters(now time.Duration, seq, fired uint64, maxQ int) {
	s.now = now
	s.seq = seq
	s.fired = fired
	s.maxQ = maxQ
}
