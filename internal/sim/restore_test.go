package sim

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// pendingSet captures a kernel's pending events the way snapshot code
// does: a VisitPending sweep plus the counters.
type pendingSet struct {
	ats  []time.Duration
	seqs []uint64
	now  time.Duration
	seq  uint64
	fire uint64
	maxQ int
	thru uint64
}

func capture(s *Sim) pendingSet {
	var p pendingSet
	s.VisitPending(func(at time.Duration, seq uint64, _ func(any), _ any) {
		p.ats = append(p.ats, at)
		p.seqs = append(p.seqs, seq)
	})
	p.now, p.seq, p.fire, p.maxQ, p.thru = s.Counters()
	return p
}

// TestRestoredTimerGenerations pins the free-list audit's record rule:
// Timer handles never cross a restore — the durable identity of a
// pending event is its (at, seq) pair, and a restored kernel re-derives
// fresh handles (fresh records, generation 0) via RestoreAtArg. The
// generation guard must hold in the restored world exactly as in an
// original one: a handle is live until its event fires or stops, and
// stays a stale no-op after its record is recycled by a new event.
func TestRestoredTimerGenerations(t *testing.T) {
	src := New(1)
	src.At(5*time.Second, func() {})
	src.At(7*time.Second, func() {})
	src.RunUntil(1 * time.Second)
	p := capture(src)
	if len(p.ats) != 2 {
		t.Fatalf("captured %d pending events, want 2", len(p.ats))
	}

	dst := New(1)
	handles := make([]Timer, len(p.ats))
	for i := range p.ats {
		handles[i] = dst.RestoreAtArg(p.ats[i], p.seqs[i], callFunc, func() {})
	}
	dst.SetCounters(p.now, p.seq, p.fire, p.maxQ, p.thru)

	for i, h := range handles {
		if r := h.pending(); r == nil || r.at != p.ats[i] || r.seq != p.seqs[i] {
			t.Fatalf("restored handle %d: record %+v, want pending at (%v, %d)", i, r, p.ats[i], p.seqs[i])
		}
	}

	// Stop the first restored event, then schedule another: the freed
	// record is recycled but the generation bump keeps the old handle dead.
	if !handles[0].Stop() {
		t.Fatal("Stop on a live restored handle returned false")
	}
	if handles[0].Stop() {
		t.Fatal("second Stop on the same handle returned true")
	}
	recycled := dst.At(9*time.Second, func() {})
	if handles[0].pending() != nil {
		t.Fatal("stale handle went live again after its slot was recycled")
	}
	if handles[0].Stop() {
		t.Fatal("stale handle stopped the slot's new occupant")
	}
	if recycled.pending() == nil {
		t.Fatal("the slot's new occupant lost its pending event")
	}
}

// Snapshot code claims a pending event by its callback and argument, and
// names an unclaimed closure event by the closure. So a closure event
// (At, After) must surface as callFunc with the closure as its argument,
// and an argument-passing one with its afn and arg, in whichever tier it
// waits.
func TestVisitPendingReportsClosureEvents(t *testing.T) {
	s := New(1)
	var ran []string
	arg := new(int)
	afn := func(a any) { *a.(*int)++ }
	s.At(0, func() { ran = append(ran, "cur") })
	s.AtArg(time.Millisecond, afn, arg)                         // an L0 bucket
	s.After(time.Second, func() { ran = append(ran, "after") }) // an L1 bucket
	s.RestoreAtArg(10*time.Second, 8, afn, arg)                 // overflow
	ptr := func(fn func(any)) uintptr { return reflect.ValueOf(fn).Pointer() }
	var ats []time.Duration
	s.VisitPending(func(at time.Duration, seq uint64, f func(any), a any) {
		ats = append(ats, at)
		_, closure := a.(func())
		switch {
		case closure && ptr(f) == ptr(callFunc):
		case a == any(arg) && ptr(f) == ptr(afn):
		default:
			t.Errorf("event at %v: callback %#x with argument %T", at, ptr(f), a)
			return
		}
		f(a)
	})
	want := []time.Duration{0, time.Millisecond, time.Second, 10 * time.Second}
	if !slices.Equal(ats, want) || !slices.Equal(ran, []string{"cur", "after"}) || *arg != 2 {
		t.Errorf("visited %v running closures %v and the AtArg callback %d times, want %v, [cur after] and 2", ats, ran, *arg, want)
	}
}

// TestSequenceCounterRebase pins the one generation counter a restore
// MUST rebase: the kernel's sequence mint. Restored events replay
// identities minted by the old kernel; SetCounters then moves the mint
// past all of them, so fresh events can never collide with a restored
// (at, seq) pair and ties at the same deadline keep the original
// first-scheduled-first-fired order.
func TestSequenceCounterRebase(t *testing.T) {
	src := New(1)
	var order []string
	src.At(10*time.Second, func() { order = append(order, "restored-a") })
	src.At(10*time.Second, func() { order = append(order, "restored-b") })
	src.RunUntil(2 * time.Second)
	p := capture(src)

	dst := New(1)
	names := []string{"restored-a", "restored-b"}
	for i := range p.ats {
		name := names[i]
		dst.RestoreAtArg(p.ats[i], p.seqs[i], callFunc, func() { order = append(order, name) })
	}
	dst.SetCounters(p.now, p.seq, p.fire, p.maxQ, p.thru)

	if now, seq, _, _, _ := dst.Counters(); now != p.now || seq != p.seq {
		t.Fatalf("counters (%v, %d) after restore, want (%v, %d)", now, seq, p.now, p.seq)
	}
	// A fresh event at the same deadline must mint a sequence past every
	// restored one and therefore fire after both.
	fresh := dst.At(10*time.Second, func() { order = append(order, "fresh") })
	if r := fresh.pending(); r == nil || r.seq < p.seq {
		t.Fatalf("fresh event's record %+v, want pending with seq >= %d", r, p.seq)
	}

	order = nil
	dst.RunUntil(11 * time.Second)
	want := []string{"restored-a", "restored-b", "fresh"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}
