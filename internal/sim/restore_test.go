package sim

import (
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
	s.VisitPending(func(at time.Duration, seq uint64, afn func(any), arg any, fn func()) {
		p.ats = append(p.ats, at)
		p.seqs = append(p.seqs, seq)
	})
	p.now, p.seq, p.fire, p.maxQ, p.thru = s.Counters()
	return p
}

// TestRestoredTimerGenerations pins the free-list audit's record rule:
// Timer handles never cross a restore — the durable identity of a
// pending event is its (at, seq) pair, and a restored kernel re-derives
// fresh handles (fresh records, generation 0) via RestoreAt. The
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
		handles[i] = dst.RestoreAt(p.ats[i], p.seqs[i], func() {})
	}
	dst.SetCounters(p.now, p.seq, p.fire, p.maxQ, p.thru)

	for i, h := range handles {
		at, seq, ok := h.Key()
		if !ok || at != p.ats[i] || seq != p.seqs[i] {
			t.Fatalf("restored handle %d: key (%v, %d, %v), want (%v, %d, true)",
				i, at, seq, ok, p.ats[i], p.seqs[i])
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
	if _, _, ok := handles[0].Key(); ok {
		t.Fatal("stale handle went live again after its slot was recycled")
	}
	if handles[0].Stop() {
		t.Fatal("stale handle stopped the slot's new occupant")
	}
	if _, _, ok := recycled.Key(); !ok {
		t.Fatal("the slot's new occupant lost its pending event")
	}
}

// Snapshot code claims a pending event by how it dispatches: snapio's
// Claim keys on afn, and Ctx.Timer finds a closure timer by (at, seq). So
// a closure event must surface with fn set and afn nil, and an
// argument-passing one with its afn and arg, in whichever tier it waits.
func TestVisitPendingReportsClosureEvents(t *testing.T) {
	s := New(1)
	var ran []string
	arg := new(int)
	afn := func(a any) { *a.(*int)++ }
	s.At(0, func() { ran = append(ran, "cur") })
	s.AtArg(time.Millisecond, afn, arg)                                   // an L0 bucket
	s.RestoreAt(time.Second, 7, func() { ran = append(ran, "restored") }) // an L1 bucket
	s.RestoreAtArg(10*time.Second, 8, afn, arg)                           // overflow
	var ats []time.Duration
	s.VisitPending(func(at time.Duration, seq uint64, afn func(any), a any, fn func()) {
		ats = append(ats, at)
		switch {
		case fn != nil && afn == nil && a == nil:
			fn()
		case fn == nil && afn != nil && a == any(arg):
			afn(a)
		default:
			t.Errorf("event at %v: afn set %v, arg %v, fn set %v", at, afn != nil, a, fn != nil)
		}
	})
	want := []time.Duration{0, time.Millisecond, time.Second, 10 * time.Second}
	if !slices.Equal(ats, want) || !slices.Equal(ran, []string{"cur", "restored"}) || *arg != 2 {
		t.Errorf("visited %v running closures %v and the AtArg callback %d times, want %v, [cur restored] and 2", ats, ran, *arg, want)
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
		dst.RestoreAt(p.ats[i], p.seqs[i], func() { order = append(order, name) })
	}
	dst.SetCounters(p.now, p.seq, p.fire, p.maxQ, p.thru)

	if now, seq, _, _, _ := dst.Counters(); now != p.now || seq != p.seq {
		t.Fatalf("counters (%v, %d) after restore, want (%v, %d)", now, seq, p.now, p.seq)
	}
	// A fresh event at the same deadline must mint a sequence past every
	// restored one and therefore fire after both.
	fresh := dst.At(10*time.Second, func() { order = append(order, "fresh") })
	if _, seq, ok := fresh.Key(); !ok || seq < p.seq {
		t.Fatalf("fresh event minted seq %d (ok=%v), want >= %d", seq, ok, p.seq)
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
