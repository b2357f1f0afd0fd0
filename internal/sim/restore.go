package sim

import (
	"sort"
	"time"
)

// This file is the kernel's snapshot/restore surface. A snapshot captures
// the scheduler's semantic state — the clock, the counters, and every
// pending event's (deadline, sequence) pair — while the physical layout
// (heap shape, record ids, the free list) is deliberately excluded: pop
// order is a strict total order on (at, seq), so two kernels with the
// same pending set and counters replay identically no matter how their
// records are arranged. Owners of pending events (simnet, machine,
// simdisk, workload, chaos) re-arm them with RestoreAt/RestoreAtArg,
// pinning the original (at, seq) so the interleaving — and therefore the
// entire downstream event log — is byte-identical.

// Key returns the (deadline, sequence) identity of a still-pending
// event, the stable name snapshots use for it. ok is false for stale or
// zero handles, mirroring Stop.
func (t Timer) Key() (at time.Duration, seq uint64, ok bool) {
	if r := t.pending(); r != nil {
		return r.at, r.seq, true
	}
	return 0, 0, false
}

// VisitPending calls visit for every pending event in firing order
// (ascending (at, seq)): a closure event (At, RestoreAt) with fn set and
// afn nil, an argument-passing one with afn and arg. The callback must
// not schedule or cancel events; snapshot code uses it to let each
// subsystem claim the pending events it owns, and treats any event left
// unclaimed as a hard save error — the completeness check that keeps
// "what the snapshot captures" honest.
func (s *Sim) VisitPending(visit func(at time.Duration, seq uint64, afn func(any), arg any, fn func())) {
	ents := make([]heapEnt, 0, s.npend)
	ents = append(ents, s.cur...)
	for code := int32(0); code < l0Buckets+l1Buckets; code++ {
		head, occ, i := s.bucket(code)
		if !occ.has(i) {
			continue
		}
		for id := *head; id >= 0; id = s.rec(id).next {
			ents = append(ents, heapEnt{at: s.rec(id).at, seq: s.rec(id).seq, id: id})
		}
	}
	ents = append(ents, s.overflow...)
	sort.Slice(ents, func(i, j int) bool { return entLess(ents[i], ents[j]) })
	for _, ent := range ents {
		if r := s.rec(ent.id); r.afn == nil {
			visit(r.at, r.seq, nil, nil, r.arg.(func()))
		} else {
			visit(r.at, r.seq, r.afn, r.arg, nil)
		}
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
	return s.push(at, seq, nil, fn)
}

// RestoreAtArg is RestoreAt for pre-bound callbacks.
func (s *Sim) RestoreAtArg(at time.Duration, seq uint64, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.push(at, seq, fn, arg)
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
