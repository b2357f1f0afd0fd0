// Package sim is a deterministic discrete-event simulation kernel.
//
// It stands in for the paper's physical testbed: instead of a 4-node
// Pentium-III cluster observed over wall-clock hours, every hardware and
// software component is driven by a single virtual clock, so a complete
// fault-injection campaign runs in seconds and is exactly reproducible
// from a seed.
//
// The kernel is intentionally tiny: a virtual clock, a hierarchical
// timer wheel of cancellable events (near-future buckets backed by an
// overflow heap, popping in a strict (deadline, seq) total order), and
// a facility for deriving independent, named, deterministic random
// streams. Everything else (network, disks, machines, processes) is
// layered on top in sibling packages.
//
// The event loop is the hot path of every experiment — a campaign fires
// tens of millions of events — so the kernel recycles event objects
// through a free list (handles are generation-counted, making a stale
// Stop a safe no-op) and offers allocation-free argument-passing variants
// (AtArg, AfterArg) so packet-rate callers need no per-event closure.
//
// The kernel has one-shot events only. Protocol code is written against
// clock.Clock and reaches the kernel through its process's clock
// (internal/machine), which is where periodic tickers live.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"time"

	"press/internal/clock"
)

// event is one scheduled callback. Events are owned by the kernel and
// recycled through the simulator's free list; callers hold generation-
// counted Timer handles instead of event pointers.
type event struct {
	s    *Sim
	at   time.Duration
	seq  uint64 // tie-breaker: equal deadlines fire in scheduling order
	slot int32  // arena slot while queued; -1 while not queued
	gen  uint32 // bumped on every release; validates Timer handles
	fn   func()
	afn  func(any) // argument-passing form; fn and afn are exclusive
	arg  any
}

// Timer is the cancellation handle for a scheduled event. It is a small
// value (copy freely); the zero Timer is inert. Handles stay valid after
// the event fires or is cancelled: the kernel recycles the underlying
// object, and the generation count makes Stop on a stale handle a no-op
// that reports false.
type Timer struct {
	e   *event
	gen uint32
}

// Stop cancels the event. It reports whether the event was still
// pending; false means it already fired, was already stopped, or the
// handle is stale (its event object has been recycled). Calling Stop
// from inside the firing event's own callback returns false: the event
// is no longer pending by the time its callback runs.
func (t Timer) Stop() bool {
	e := t.e
	if e == nil || e.gen != t.gen || e.slot < 0 {
		return false
	}
	e.s.remove(e)
	e.s.release(e)
	return true
}

// When returns the virtual instant the event fires, and whether it is
// still pending.
func (t Timer) When() (time.Duration, bool) {
	e := t.e
	if e == nil || e.gen != t.gen || e.slot < 0 {
		return 0, false
	}
	return e.at, true
}

var _ clock.Timer = Timer{}

// Sim is a discrete-event simulator instance. It is not safe for
// concurrent use: all model code runs single-threaded inside Run/Step.
type Sim struct {
	now      time.Duration
	arena    []slotRec // slot id -> queued event + its (structure, index) home
	slotFree []int32   // recycled slot ids (LIFO, deterministic)
	free     []*event
	seq      uint64
	seed     int64
	fired    uint64
	maxQ     int
	npend    int // total pending events across cur, wheels and overflow
	live     int // events allocated and not on the free list
	halted   bool

	// Hierarchical timer wheel (see the commentary above heapEnt).
	cur      []heapEnt // small indexed 4-ary heap: the front of the timeline
	overflow []heapEnt // indexed 4-ary heap: events beyond the wheel horizon
	l0       [l0Buckets][]heapEnt
	l1       [l1Buckets][]heapEnt
	l0occ    wheelOcc
	l1occ    wheelOcc
	l0Win    int64 // granule number (at >> g0Shift) covered by l0[0]
	curIdx   int   // L0 bucket drained into cur; cur covers at < (l0Win+curIdx+1)<<g0Shift
	l1Win    int64 // granule number (at >> g1Shift) covered by l1[0]
	l1Idx    int   // L1 bucket currently expanded into the L0 window
}

// New returns an empty simulator whose clock reads zero. The seed is the
// root of all derived random streams (see NewRand).
func New(seed int64) *Sim {
	s := &Sim{seed: seed}
	// Seed every wheel bucket with a small backing array up front. Buckets
	// keep their capacity across drains, but lazily grown buckets ramp
	// 1→2→4→8 as event phases drift across granule alignments — a slow
	// trickle of allocations that lasts thousands of granule cycles. ~100KB
	// once per kernel buys an allocation-free steady state immediately.
	for i := range s.l0 {
		s.l0[i] = make([]heapEnt, 0, 8)
	}
	for i := range s.l1 {
		s.l1[i] = make([]heapEnt, 0, 8)
	}
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Seed returns the root seed the simulator was created with.
func (s *Sim) Seed() int64 { return s.seed }

// EventsFired returns the number of events executed so far. Useful for
// benchmarking and for detecting runaway models in tests.
func (s *Sim) EventsFired() uint64 { return s.fired }

// CountExtraFired adds n to the fired-event counter without running
// anything. Batched delivery (simnet) fires one kernel event standing in
// for n+1 logically separate deliveries; counting the collapsed n keeps
// EventsFired equal to the unbatched schedule, which the scale gates
// assert.
func (s *Sim) CountExtraFired(n uint64) { s.fired += n }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int { return s.npend }

// MaxQueued returns the high-water mark of the pending-event count.
func (s *Sim) MaxQueued() int { return s.maxQ }

// LiveEvents returns how many event objects exist outside the free list
// (the queued ones and the one firing). The pool-reuse regression test
// asserts this stays flat under a steady-state workload.
func (s *Sim) LiveEvents() int { return s.live }

// alloc takes an event from the free list, or makes one.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.live++
		return e
	}
	s.live++
	return &event{s: s, slot: -1}
}

// release recycles a no-longer-queued event. The generation bump
// invalidates every outstanding Timer handle to it.
func (s *Sim) release(e *event) {
	e.gen++
	e.fn = nil
	e.afn = nil
	e.arg = nil
	s.live--
	s.free = append(s.free, e)
}

// schedule inserts a fresh event at absolute time t (clamped to now).
func (s *Sim) schedule(t time.Duration) *event {
	if t < s.now {
		t = s.now
	}
	e := s.alloc()
	e.at = t
	e.seq = s.seq
	s.seq++
	s.push(e)
	return e
}

// At schedules fn at absolute virtual time t. Scheduling in the past (or
// at the current instant) fires on the next Step, before any later event.
func (s *Sim) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := s.schedule(t)
	e.fn = fn
	return Timer{e: e, gen: e.gen}
}

// AtArg is At for pre-bound callbacks: fn(arg) runs at time t. Packet-
// rate callers use it with a package-level function and a reused or
// already-allocated argument so scheduling allocates nothing.
func (s *Sim) AtArg(t time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := s.schedule(t)
	e.afn = fn
	e.arg = arg
	return Timer{e: e, gen: e.gen}
}

// After schedules fn to run d after the current instant.
func (s *Sim) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterArg is AtArg relative to the current instant.
func (s *Sim) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now+d, fn, arg)
}

// Halt makes the current Run/RunUntil call return after the event that
// is executing finishes. Pending events remain queued.
func (s *Sim) Halt() { s.halted = true }

// Step executes the single earliest pending event, advancing the clock
// to its deadline. It reports whether an event was executed.
//
// Cancel-during-dispatch is explicit: the firing event leaves the queue
// (and its handles go stale) before its callback runs, so a Stop from
// inside the callback — its own handle or any other — acts on the queue
// as it stands and never corrupts dispatch. The fired event returns to
// the free list only after its callback finishes.
func (s *Sim) Step() bool {
	if s.npend == 0 {
		return false
	}
	s.ensureFront()
	s.fireFront()
	return true
}

// fireFront pops cur's minimum and runs it; the caller has made cur hold
// the earliest pending entry (ensureFront).
func (s *Sim) fireFront() {
	top := s.heapPopEnt(&s.cur)
	e := s.arena[top.slot].ev
	s.freeSlot(top.slot)
	e.slot = -1
	s.npend--
	if e.at > s.now {
		s.now = e.at
	}
	s.fired++
	if e.afn != nil {
		e.afn(e.arg)
	} else {
		e.fn()
	}
	s.release(e)
}

// Run executes events until none remain or Halt is called.
func (s *Sim) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// RunUntil executes events with deadlines <= t, then advances the clock
// to exactly t. Events scheduled beyond t remain pending.
func (s *Sim) RunUntil(t time.Duration) {
	s.halted = false
	// One ensureFront serves both the look at the deadline and the pop.
	for !s.halted && s.npend > 0 {
		s.ensureFront()
		if s.cur[0].at > t {
			break
		}
		s.fireFront()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d (see RunUntil).
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// NewRand derives an independent deterministic random stream from the
// simulator's root seed and a label. Streams with distinct labels are
// statistically independent; the same (seed, label) pair always yields
// the same stream, which keeps experiments reproducible even when
// components are added or reordered.
func (s *Sim) NewRand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", s.seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// The event queue is a two-level hierarchical timer wheel with a sorted
// front and an overflow heap, replacing the single global 4-ary heap
// whose O(log E) sifts dominated wide-cluster episodes (the pending-set
// high water grows with cluster size; at N=256 it passes 60k entries and
// every pop walks eight cache-missing levels).
//
// Layout, front to back:
//
//   - cur: a small indexed 4-ary min-heap holding the front of the
//     timeline — every pending entry at or before the current wheel
//     granule. Pops come only from here, so the strict (at, seq) total
//     order is preserved exactly: entries reach cur no later than the
//     granule they fire in, and a heap with unique keys pops the same
//     sequence regardless of insertion order.
//   - l0: 256 unsorted buckets of 2^16 ns (≈65.5µs) each — appends and
//     swap-removes are O(1) on pointer-free entries.
//   - l1: 256 unsorted buckets of 2^24 ns (≈16.8ms) each; the bucket at
//     l1Idx is expanded across the l0 window. Horizon ≈4.3s covers
//     propagation delays, process charges, tickers and SYN timeouts.
//   - overflow: an indexed 4-ary heap for the far future (beyond the l1
//     horizon). It stays small and cold: only long timeouts land here.
//
// Occupancy bitmaps (one bit per bucket) make skipping empty granules a
// few TrailingZeros64 scans. When both wheels drain, the windows re-base
// at the overflow minimum, so idle stretches cost nothing. Entries are
// pointer-free — ordering key plus an arena slot id — so moves are plain
// word copies with no GC write barrier and none of the queue slices are
// scanned; the event pointers live in a side arena of slotRec records,
// each carrying its (structure, index) home for cancellation.
// seq is unique, so pop order is fully deterministic regardless of
// internal layout, and identical to the single-heap kernel's.

const (
	g0Shift   = 16          // L0 granule: 2^16 ns
	g1Shift   = g0Shift + 8 // L1 granule: 2^24 ns
	l0Buckets = 1 << (g1Shift - g0Shift)
	l1Buckets = 256

	locCur  = -1 // entry lives in the cur heap
	locOver = -2 // entry lives in the overflow heap
)

// wheelOcc is an occupancy bitmap: bit i set iff bucket i is non-empty.
type wheelOcc [l1Buckets / 64]uint64

type heapEnt struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// slotRec is one arena entry: the queued event plus its current home —
// which structure holds its heapEnt (loc) and at what index (pos). The
// three fields were once parallel arrays; every queue operation reads
// and writes them together, so one record costs one cache line where
// the split layout cost three.
type slotRec struct {
	ev  *event
	pos int32
	loc int32 // locCur / locOver / bucket code
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push assigns e an arena slot and inserts its entry into the queue.
func (s *Sim) push(e *event) {
	var slot int32
	if n := len(s.slotFree); n > 0 {
		slot = s.slotFree[n-1]
		s.slotFree = s.slotFree[:n-1]
	} else {
		slot = int32(len(s.arena))
		s.arena = append(s.arena, slotRec{})
	}
	s.arena[slot].ev = e
	e.slot = slot
	s.insertEnt(heapEnt{at: e.at, seq: e.seq, slot: slot})
	s.npend++
	if s.npend > s.maxQ {
		s.maxQ = s.npend
	}
}

// insertEnt routes an entry to cur, an L0/L1 bucket, or overflow by
// deadline. Anything at or before the granule cur is draining goes to
// cur so the front stays complete.
func (s *Sim) insertEnt(ent heapEnt) {
	g0 := int64(ent.at) >> g0Shift
	if g0 <= s.l0Win+int64(s.curIdx) {
		s.heapPush(&s.cur, locCur, ent)
		return
	}
	if d := g0 - s.l0Win; d < l0Buckets {
		s.bucketPut(&s.l0[d], int32(d), &s.l0occ, int(d), ent)
		return
	}
	if d := (int64(ent.at) >> g1Shift) - s.l1Win; d < l1Buckets {
		s.bucketPut(&s.l1[d], int32(l0Buckets+d), &s.l1occ, int(d), ent)
		return
	}
	s.heapPush(&s.overflow, locOver, ent)
}

// bucketPut appends ent to a wheel bucket and marks it occupied.
func (s *Sim) bucketPut(b *[]heapEnt, code int32, occ *wheelOcc, idx int, ent heapEnt) {
	r := &s.arena[ent.slot]
	r.pos = int32(len(*b))
	r.loc = code
	*b = append(*b, ent)
	occ[idx>>6] |= 1 << (uint(idx) & 63)
}

// nextOcc returns the first occupied bucket index >= from, or the bucket
// count when none is.
func nextOcc(occ *wheelOcc, from int) int {
	if from >= l1Buckets {
		return l1Buckets
	}
	w := from >> 6
	m := occ[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		w++
		if w >= len(occ) {
			return l1Buckets
		}
		m = occ[w]
	}
}

// ensureFront makes cur hold the globally earliest pending entry,
// advancing the wheel cursor across empty granules, expanding the next
// L1 bucket, or re-basing both windows at the overflow minimum as
// needed. Advancing the cursor is independent of the clock and never
// reorders pops: cur always receives every entry of a granule before
// any of them is popped. Callers must ensure at least one event is
// pending.
func (s *Sim) ensureFront() {
	for len(s.cur) == 0 {
		if i := nextOcc(&s.l0occ, s.curIdx+1); i < l0Buckets {
			s.curIdx = i
			s.drainL0(i)
			continue
		}
		if j := nextOcc(&s.l1occ, s.l1Idx+1); j < l1Buckets {
			s.expandL1(j)
			continue
		}
		// Both wheels empty: jump the windows to the far future.
		s.l1Win = int64(s.overflow[0].at) >> g1Shift
		s.l1Idx = -1
		s.drainOverflow()
	}
}

// drainL0 dumps bucket l0[i] into the (empty) cur heap and heapifies.
func (s *Sim) drainL0(i int) {
	b := s.l0[i]
	s.l0[i] = b[:0]
	s.l0occ[i>>6] &^= 1 << (uint(i) & 63)
	h := append(s.cur, b...)
	s.cur = h
	for k := range h {
		r := &s.arena[h[k].slot]
		r.loc = locCur
		r.pos = int32(k)
	}
	for k := (len(h) - 2) >> 2; k >= 0; k-- {
		s.heapDown(h, k)
	}
}

// expandL1 scatters bucket l1[j] across a fresh L0 window.
func (s *Sim) expandL1(j int) {
	s.l1Idx = j
	s.l0Win = (s.l1Win + int64(j)) << (g1Shift - g0Shift)
	s.curIdx = -1
	b := s.l1[j]
	s.l1[j] = b[:0]
	s.l1occ[j>>6] &^= 1 << (uint(j) & 63)
	for _, ent := range b {
		d := (int64(ent.at) >> g0Shift) - s.l0Win
		s.bucketPut(&s.l0[d], int32(d), &s.l0occ, int(d), ent)
	}
}

// drainOverflow migrates every overflow entry inside the (re-based) L1
// horizon into its L1 bucket. Overflow entries are always at or beyond
// the horizon when inserted and the windows only move forward, so each
// entry migrates at most once.
func (s *Sim) drainOverflow() {
	horizon := time.Duration((s.l1Win + l1Buckets) << g1Shift)
	for len(s.overflow) > 0 && s.overflow[0].at < horizon {
		ent := s.heapPopEnt(&s.overflow)
		d := (int64(ent.at) >> g1Shift) - s.l1Win
		s.bucketPut(&s.l1[d], int32(l0Buckets+d), &s.l1occ, int(d), ent)
	}
}

// freeSlot returns a slot id to the arena free list.
func (s *Sim) freeSlot(slot int32) {
	s.arena[slot].ev = nil
	s.slotFree = append(s.slotFree, slot)
}

// heapPush appends ent to an indexed 4-ary heap and sifts it up.
func (s *Sim) heapPush(hp *[]heapEnt, code int32, ent heapEnt) {
	h := append(*hp, ent)
	*hp = h
	i := len(h) - 1
	r := &s.arena[ent.slot]
	r.loc = code
	r.pos = int32(i)
	s.heapUp(h, i)
}

// heapUp moves h[i] towards the root until its parent is not greater.
func (s *Sim) heapUp(h []heapEnt, i int) {
	ar := s.arena
	ent := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		ar[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = ent
	ar[ent.slot].pos = int32(i)
}

// heapDown moves h[i] towards the leaves while a child is smaller,
// reporting whether it moved.
func (s *Sim) heapDown(h []heapEnt, i int) bool {
	ar := s.arena
	n := len(h)
	ent := h[i]
	start := i
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for c++; c < end; c++ {
			if entLess(h[c], h[best]) {
				best = c
			}
		}
		if !entLess(h[best], ent) {
			break
		}
		h[i] = h[best]
		ar[h[i].slot].pos = int32(i)
		i = best
	}
	h[i] = ent
	ar[ent.slot].pos = int32(i)
	return i != start
}

// heapPopEnt removes and returns the minimum entry of an indexed heap
// without touching the slot arena; callers re-home or free the slot.
func (s *Sim) heapPopEnt(hp *[]heapEnt) heapEnt {
	h := *hp
	top := h[0]
	n := len(h) - 1
	last := h[n]
	*hp = h[:n]
	if n > 0 {
		h = h[:n]
		h[0] = last
		s.arena[last.slot].pos = 0
		s.heapDown(h, 0)
	}
	return top
}

// heapRemove deletes position i from an indexed heap.
func (s *Sim) heapRemove(hp *[]heapEnt, i int) {
	h := *hp
	n := len(h) - 1
	last := h[n]
	*hp = h[:n]
	if i < n {
		h = h[:n]
		h[i] = last
		s.arena[last.slot].pos = int32(i)
		if !s.heapDown(h, i) {
			s.heapUp(h, i)
		}
	}
}

// remove deletes e from whichever structure holds it: a heap remove for
// cur/overflow, an O(1) swap-remove for a wheel bucket.
func (s *Sim) remove(e *event) {
	slot := e.slot
	i := int(s.arena[slot].pos)
	code := s.arena[slot].loc
	s.freeSlot(slot)
	e.slot = -1
	s.npend--
	switch {
	case code == locCur:
		s.heapRemove(&s.cur, i)
	case code == locOver:
		s.heapRemove(&s.overflow, i)
	default:
		var b *[]heapEnt
		if code < l0Buckets {
			b = &s.l0[code]
		} else {
			b = &s.l1[code-l0Buckets]
		}
		h := *b
		n := len(h) - 1
		if i < n {
			h[i] = h[n]
			s.arena[h[i].slot].pos = int32(i)
		}
		*b = h[:n]
		if n == 0 {
			if code < l0Buckets {
				s.l0occ[code>>6] &^= 1 << (uint(code) & 63)
			} else {
				c := code - l0Buckets
				s.l1occ[c>>6] &^= 1 << (uint(c) & 63)
			}
		}
	}
}
