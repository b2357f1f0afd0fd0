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
// tens of millions of events — so an event is one fixed record, minted
// in chunks that never move and recycled through an intrusive free list
// (handles are generation-counted, making a stale Stop a safe no-op), and
// the kernel offers allocation-free argument-passing variants (AtArg,
// AfterArg) so packet-rate callers need no per-event closure.
//
// A caller that may not need an event at all can hold its place instead:
// Reserve mints the sequence number the event would have had, Passed says
// whether that key's turn has come, and RestoreAtArg arms the event at
// the key if it turns out to be needed. An event armed at a reserved key
// fires exactly where the eagerly scheduled one would have, so the
// schedule of every event that fires is the same either way.
//
// The kernel has one-shot events only. Protocol code is written against
// clock.Clock and reaches the kernel through its process's clock
// (internal/machine), which is where periodic tickers live.
package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"press/internal/clock"
)

// evRec is one scheduled callback: its ordering key, its callback and its
// current home in the queue (loc). In cur or overflow, pos is its index
// in that heap. In a wheel bucket, loc is the bucket's code and next/prev
// link it into the bucket's list: next is -1 at the tail, and the head's
// prev names the tail, which is what lets a put append. In the run, next
// names the entry that pops after it (-1 at the tail) and prev is unused.
// On the free list, next names the next free record. Callers hold
// generation-counted Timer handles, never the record.
type evRec struct {
	at   time.Duration
	seq  uint64    // tie-breaker: equal deadlines fire in scheduling order
	afn  func(any) // a closure event (At, After) holds callFunc, its func() in arg
	arg  any
	pos  int32
	loc  int32 // locCur / locOver / bucket code
	next int32
	prev int32
	gen  uint32 // bumped on every release; validates Timer handles
}

// Records live in 16 KB chunks, minted as the pending set first reaches
// them and never moved, so a record id names its record for the kernel's
// life and a storm copies nothing as the kernel grows. Id >> chunkShift
// is the chunk and the low bits the index in it. A chunk holds one record
// fewer than chunkLen: the allocator puts an 8-byte header before an
// object with pointers, and 256 records and the header would take the
// next size class, 18 KB. The last index of each chunk is never minted.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
)

type chunk = [chunkLen - 1]evRec

// Timer is the cancellation handle for a scheduled event. It is a small
// value (copy freely); the zero Timer is inert. Handles stay valid after
// the event fires or is cancelled: the kernel recycles the underlying
// record, and the generation count makes Stop on a stale handle a no-op
// that reports false.
type Timer struct {
	s   *Sim
	id  int32
	gen uint32
}

// pending returns the record t names while its event is pending, or nil.
// A record's generation moves on when it is released, before a firing
// event's callback runs, so only a pending event matches its handle.
func (t Timer) pending() *evRec {
	if t.s == nil {
		return nil
	}
	if r := t.s.rec(t.id); r.gen == t.gen {
		return r
	}
	return nil
}

// Stop cancels the event. It reports whether the event was still
// pending; false means it already fired, was already stopped, or the
// handle is stale (its record has been recycled). Calling Stop from
// inside the firing event's own callback returns false: the event is no
// longer pending by the time its callback runs.
func (t Timer) Stop() bool {
	r := t.pending()
	if r == nil {
		return false
	}
	t.s.remove(t.id, r)
	t.s.release(t.id, r)
	return true
}

var _ clock.Timer = Timer{}

// Sim is a discrete-event simulator instance. It is not safe for
// concurrent use: all model code runs single-threaded inside Run/Step.
type Sim struct {
	now    time.Duration
	chunks []*chunk // record id -> chunks[id>>chunkShift][id&(chunkLen-1)]
	free   int32    // head of the free records' list through next (LIFO, deterministic); -1 when empty
	seq    uint64
	seed   int64
	fired  uint64
	// through bounds the keys that have had their turn: every key before
	// now, and the keys at now whose seq is below through. It is the
	// firing event's seq + 1, and MaxUint64 once a RunUntil has run the
	// clock to its end.
	through uint64
	maxQ    int
	npend   int // total pending events across cur, wheels and overflow
	halted  bool

	// Hierarchical timer wheel (see the commentary above heapEnt).
	cur      []heapEnt        // small indexed 4-ary heap: events armed into the granule being drained
	runHead  int32            // the run: the drained L0 bucket's list in (at, seq) order, linked through next; -1 when empty
	overflow []heapEnt        // indexed 4-ary heap: events beyond the wheel horizon
	l0       [l0Buckets]int32 // head record of each L0 bucket's list; valid while its l0occ bit is set
	l1       [l1Buckets]int32 // head record of each L1 bucket's list; valid while its l1occ bit is set
	l0occ    wheelOcc
	l1occ    wheelOcc
	l0Win    int64 // granule number (at >> g0Shift) covered by l0[0]
	curIdx   int   // L0 bucket drained into cur; cur covers at < (l0Win+curIdx+1)<<g0Shift
	l1Win    int64 // granule number (at >> g1Shift) covered by l1[0]
	l1Idx    int   // L1 bucket currently expanded into the L0 window
}

// New returns an empty simulator whose clock reads zero. The seed is the
// root of all derived random streams (see NewRand). Records are minted
// with the first event, so an empty kernel is one small object.
func New(seed int64) *Sim {
	return &Sim{seed: seed, free: -1, runHead: -1}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// EventsFired returns the number of events executed so far. Useful for
// benchmarking and for detecting runaway models in tests.
func (s *Sim) EventsFired() uint64 { return s.fired }

// AdjustFired adds n, which may be negative, to the fired-event counter
// without running anything. Batched delivery (simnet) fires one kernel
// event standing in for n+1 logically separate deliveries and counts the
// collapsed n; a wake that finds nothing due (the workload's deadline
// lists) takes its own count back with -1. Either way EventsFired stays
// the count of the schedule the callers stand in for, which the scale
// gates assert.
func (s *Sim) AdjustFired(n int64) { s.fired += uint64(n) }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int { return s.npend }

// MaxQueued returns the high-water mark of the pending-event count.
func (s *Sim) MaxQueued() int { return s.maxQ }

func (s *Sim) rec(id int32) *evRec { return &s.chunks[id>>chunkShift][id&(chunkLen-1)] }

// alloc takes a record off the free list, minting a chunk of them when
// the list is empty: the one place the kernel allocates event storage.
func (s *Sim) alloc() (int32, *evRec) {
	if s.free < 0 {
		c := new(chunk)
		base := int32(len(s.chunks)) << chunkShift
		for i := range c {
			c[i].next = base + int32(i) + 1
		}
		c[len(c)-1].next = -1
		s.chunks = append(s.chunks, c)
		s.free = base
	}
	id := s.free
	r := s.rec(id)
	s.free = r.next
	return id, r
}

// release recycles a no-longer-queued record. The generation bump
// invalidates every outstanding Timer handle to it.
func (s *Sim) release(id int32, r *evRec) {
	r.gen++
	r.afn, r.arg = nil, nil
	r.next = s.free
	s.free = id
}

// Reserve mints the next sequence number without scheduling anything. An
// event armed later at (at, seq) through RestoreAtArg sorts exactly where
// one scheduled now for at would have; if it is never armed, nothing
// fires and the key is simply passed over. The caller picks an at after
// now, and arms the key, if at all, before it has passed.
func (s *Sim) Reserve() uint64 {
	s.seq++
	return s.seq - 1
}

// Passed reports whether the key (at, seq) has had its turn: whether an
// event scheduled at that key would have fired by now. Inside a callback
// that is every key up to the firing event's own; between Step calls,
// every key up to the last event fired; once a RunUntil(t) completes,
// every key at or before t. SetCounters restores the bound a capture
// read (Counters).
func (s *Sim) Passed(at time.Duration, seq uint64) bool {
	return at < s.now || at == s.now && seq < s.through
}

// schedule queues an event at absolute time t (clamped to now) under the
// next sequence number.
func (s *Sim) schedule(t time.Duration, afn func(any), arg any) Timer {
	s.seq++
	return s.push(max(t, s.now), s.seq-1, afn, arg)
}

// push queues an event with the key (at, seq) in a fresh record.
func (s *Sim) push(at time.Duration, seq uint64, afn func(any), arg any) Timer {
	id, r := s.alloc()
	r.at, r.seq, r.afn, r.arg = at, seq, afn, arg
	s.insert(id, r)
	s.npend++
	if s.npend > s.maxQ {
		s.maxQ = s.npend
	}
	return Timer{s: s, id: id, gen: r.gen}
}

// At schedules fn at absolute virtual time t. Scheduling in the past (or
// at the current instant) fires on the next Step, before any later event.
func (s *Sim) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.schedule(t, callFunc, fn)
}

// callFunc is the callback of every closure event: At and After store
// the closure as its argument, so every event dispatches one way.
func callFunc(fn any) { fn.(func())() }

// AtArg is At for pre-bound callbacks: fn(arg) runs at time t. Packet-
// rate callers use it with a package-level function and a reused or
// already-allocated argument so scheduling allocates nothing.
func (s *Sim) AtArg(t time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.schedule(t, fn, arg)
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
// and its record returns to the free list (so its handles go stale)
// before its callback runs, so a Stop from inside the callback — its own
// handle or any other — acts on the queue as it stands and never
// corrupts dispatch.
func (s *Sim) Step() bool {
	if s.npend == 0 {
		return false
	}
	s.ensureFront()
	s.fireFront()
	return true
}

// fireFront pops the earliest pending entry and runs it; the caller has
// made the front hold it (ensureFront).
func (s *Sim) fireFront() {
	top := s.popFront()
	r := s.rec(top.id)
	afn, arg := r.afn, r.arg
	s.release(top.id, r)
	s.npend--
	if top.at > s.now {
		s.now = top.at
	}
	s.through = top.seq + 1
	s.fired++
	afn(arg)
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
		if s.front().at > t {
			break
		}
		s.fireFront()
	}
	if !s.halted && s.now <= t {
		s.now = t
		s.through = math.MaxUint64
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

// The event queue is a two-level hierarchical timer wheel with a heap
// front and an overflow heap, replacing the single global 4-ary heap
// whose O(log E) sifts dominated wide-cluster episodes (the pending-set
// high water grows with cluster size; at N=256 it passes 60k entries and
// every pop walks eight cache-missing levels).
//
// Layout, front to back:
//
//   - run and cur: the front of the timeline, every pending entry at or
//     before the current wheel granule. The run is that granule's L0
//     bucket's own record list, put in (at, seq) order in place when the
//     cursor reaches it and popped from its head in O(1), so draining a
//     bucket copies and allocates nothing. A list already in order (a
//     storm instant arrives in seq order) costs the one walk that checks
//     it; a short one is insertion-sorted; a long one is spread over the
//     granule's 256 sub-granules, each of those ordered the same way, and
//     the sub-lists concatenated. A Stop of a run entry unlinks it by
//     walking from the head, which the workloads never do in bulk. cur is
//     a small indexed 4-ary min-heap of the entries armed into that
//     granule after it was drained (an event a callback schedules within
//     ≈65µs, a reserved key armed late). Pops take the smaller of the two
//     heads, so the strict (at, seq) total order is preserved exactly:
//     entries reach the front no later than the granule they fire in, and
//     keys are unique. A t=2 s formation storm drains about N² events from
//     one granule at N=256, and ordering them once beats sifting every pop
//     through a heap of that size, whose moves each write a cache-missing
//     record.
//   - l0: 256 unsorted buckets of 2^16 ns (≈65.5µs) each.
//   - l1: 256 unsorted buckets of 2^24 ns (≈16.8ms) each; the bucket at
//     l1Idx is expanded across the l0 window. Horizon ≈4.3s covers
//     propagation delays, process charges, tickers and SYN timeouts.
//   - overflow: an indexed 4-ary heap for the far future (beyond the l1
//     horizon). It stays small and cold: only long timeouts land here.
//
// A wheel bucket owns no storage: it is a list threaded through the
// event records (evRec.next/prev), its head in l0 or l1. Linking at the
// tail and unlinking are O(1), a drain walks the list in insertion order,
// and a bucket that once held a storm keeps nothing of it. Occupancy
// bitmaps (one bit per bucket) say which lists are non-empty, so skipping
// empty granules is a few TrailingZeros64 scans and a head is read only
// while its bit is set. When both wheels drain, the windows re-base at
// the overflow minimum, so idle stretches cost nothing. Heap entries are
// pointer-free — ordering key plus a record id — so moves are plain word
// copies with no GC write barrier and neither heap is scanned. seq is
// unique, so pop order is fully deterministic regardless of internal
// layout, and identical to the single-heap kernel's.

const (
	g0Shift   = 16          // L0 granule: 2^16 ns
	g1Shift   = g0Shift + 8 // L1 granule: 2^24 ns
	l0Buckets = 1 << (g1Shift - g0Shift)
	l1Buckets = 256

	locCur  = -1 // entry lives in the cur heap
	locOver = -2 // entry lives in the overflow heap
	locRun  = -3 // entry lives in the run
)

// wheelOcc is an occupancy bitmap: bit i set iff bucket i is non-empty.
type wheelOcc [l1Buckets / 64]uint64

func (o *wheelOcc) has(i int) bool { return o[i>>6]&(1<<(uint(i)&63)) != 0 }
func (o *wheelOcc) set(i int)      { o[i>>6] |= 1 << (uint(i) & 63) }
func (o *wheelOcc) clear(i int)    { o[i>>6] &^= 1 << (uint(i) & 63) }

type heapEnt struct {
	at  time.Duration
	seq uint64
	id  int32
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// insert routes a record to cur, an L0/L1 bucket, or overflow by
// deadline. Anything at or before the granule being drained goes to cur
// so the front stays complete.
func (s *Sim) insert(id int32, r *evRec) {
	g0 := int64(r.at) >> g0Shift
	if g0 <= s.l0Win+int64(s.curIdx) {
		s.heapPush(&s.cur, locCur, heapEnt{at: r.at, seq: r.seq, id: id})
		return
	}
	if d := g0 - s.l0Win; d < l0Buckets {
		s.bucketPut(int32(d), id)
		return
	}
	if d := (int64(r.at) >> g1Shift) - s.l1Win; d < l1Buckets {
		s.bucketPut(int32(l0Buckets+d), id)
		return
	}
	s.heapPush(&s.overflow, locOver, heapEnt{at: r.at, seq: r.seq, id: id})
}

// bucket returns the list head and occupancy bitmap of a bucket code,
// and the bucket's bit in it.
func (s *Sim) bucket(code int32) (head *int32, occ *wheelOcc, i int) {
	if code < l0Buckets {
		return &s.l0[code], &s.l0occ, int(code)
	}
	return &s.l1[code-l0Buckets], &s.l1occ, int(code - l0Buckets)
}

// bucketPut links record id at the tail of a wheel bucket's list and
// marks the bucket occupied.
func (s *Sim) bucketPut(code, id int32) {
	head, occ, i := s.bucket(code)
	r := s.rec(id)
	r.loc, r.next = code, -1
	if !occ.has(i) {
		occ.set(i)
		*head, r.prev = id, id
		return
	}
	h := s.rec(*head)
	tail := h.prev
	s.rec(tail).next = id
	r.prev = tail
	h.prev = id
}

// bucketUnlink takes record id out of its wheel bucket's list, clearing
// the bucket's bit with its last member.
func (s *Sim) bucketUnlink(code, id int32) {
	head, occ, i := s.bucket(code)
	r := s.rec(id)
	if *head == id {
		if r.next < 0 {
			occ.clear(i)
			return
		}
		s.rec(r.next).prev = r.prev // the new head names the tail
		*head = r.next
		return
	}
	s.rec(r.prev).next = r.next
	if r.next >= 0 {
		s.rec(r.next).prev = r.prev
	} else {
		s.rec(*head).prev = r.prev // id was the tail
	}
}

// bucketTake empties an occupied wheel bucket, returning the head of its
// list. The members keep their links for the caller's walk.
func (s *Sim) bucketTake(code int32) int32 {
	head, occ, i := s.bucket(code)
	occ.clear(i)
	return *head
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

// ensureFront makes the front (run and cur) hold the globally earliest
// pending entry, advancing the wheel cursor across empty granules,
// expanding the next L1 bucket, or re-basing both windows at the overflow
// minimum as needed. Advancing the cursor is independent of the clock and never
// reorders pops: the front always receives every entry of a granule
// before any of them is popped. Callers must ensure at least one event is
// pending.
func (s *Sim) ensureFront() {
	for len(s.cur) == 0 && s.runHead < 0 {
		if cap(s.cur) > frontKeep {
			s.cur = nil
		}
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

// frontKeep is the most entries an empty cur heap keeps for the next
// granule. Events armed into a draining storm granule grow it; what they
// grew it to is dropped once it drains, instead of staying at that
// high-water for the world's life.
const frontKeep = 1024

// drainL0 makes bucket l0[i]'s list the run, in (at, seq) order.
func (s *Sim) drainL0(i int) {
	s.runHead, _ = s.orderRun(s.bucketTake(int32(i)), true)
}

// sortInline is the longest list orderRun insertion-sorts.
const sortInline = 16

// recLess orders records by (at, seq).
func recLess(a, b *evRec) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// orderRun puts the list from head into (at, seq) order in place, marking
// each member as the run's, and returns its head and tail. A list in
// order is left as it is and a short one insertion-sorted. A long one is
// spread over its granule's sub-granules when spread is set (a drained
// bucket's list, whose members share one granule), and merge-sorted
// otherwise (a sub-granule's list).
func (s *Sim) orderRun(head int32, spread bool) (int32, int32) {
	n, tail, ordered := 1, head, true
	last := s.rec(head)
	last.loc = locRun
	for id := last.next; id >= 0; id = last.next {
		r := s.rec(id)
		r.loc = locRun
		ordered = ordered && recLess(last, r)
		last, tail = r, id
		n++
	}
	switch {
	case ordered:
		return head, tail
	case n <= sortInline:
		return s.insertionSort(head)
	case spread:
		return s.spreadSort(head)
	default:
		return s.mergeSort(head, n)
	}
}

// spreadSort orders a long list whose members share one L0 granule: it
// deals the members, in list order, onto the granule's 256 sub-granules
// of 256 ns, orders each sub-list and concatenates them.
func (s *Sim) spreadSort(head int32) (int32, int32) {
	const subShift = g0Shift - 8
	var heads, tails [1 << (g0Shift - subShift)]int32
	for k := range heads {
		heads[k] = -1
	}
	for id := head; id >= 0; {
		r := s.rec(id)
		next := r.next
		r.next = -1
		k := (int64(r.at) & (1<<g0Shift - 1)) >> subShift
		if heads[k] < 0 {
			heads[k] = id
		} else {
			s.rec(tails[k]).next = id
		}
		tails[k] = id
		id = next
	}
	head, tail := int32(-1), int32(-1)
	for k, h := range heads {
		if h < 0 {
			continue
		}
		h, tails[k] = s.orderRun(h, false)
		if head < 0 {
			head = h
		} else {
			s.rec(tail).next = h
		}
		tail = tails[k]
	}
	return head, tail
}

// insertionSort orders a short list in place, returning its head and
// tail. A member not before the tail is appended in O(1).
func (s *Sim) insertionSort(head int32) (int32, int32) {
	tail := head
	id := s.rec(head).next
	s.rec(head).next = -1
	for id >= 0 {
		r := s.rec(id)
		next := r.next
		switch {
		case !recLess(r, s.rec(tail)):
			s.rec(tail).next, r.next, tail = id, -1, id
		case recLess(r, s.rec(head)):
			r.next, head = head, id
		default:
			p := head
			for q := s.rec(p).next; !recLess(r, s.rec(q)); q = s.rec(p).next {
				p = q
			}
			r.next = s.rec(p).next
			s.rec(p).next = id
		}
		id = next
	}
	return head, tail
}

// mergeSort orders an n-member list in place, returning its head and tail.
func (s *Sim) mergeSort(head int32, n int) (int32, int32) {
	if n <= sortInline {
		return s.insertionSort(head)
	}
	mid := head
	for range n/2 - 1 {
		mid = s.rec(mid).next
	}
	b := s.rec(mid).next
	s.rec(mid).next = -1
	ah, at := s.mergeSort(head, n/2)
	bh, bt := s.mergeSort(b, n-n/2)
	return s.merge(ah, at, bh, bt)
}

// merge links two ordered lists into one, returning its head and tail.
func (s *Sim) merge(a, at, b, bt int32) (int32, int32) {
	var head int32
	link := &head
	for {
		ra, rb := s.rec(a), s.rec(b)
		if recLess(rb, ra) {
			*link, link = b, &rb.next
			if b = rb.next; b < 0 {
				*link = a
				return head, at
			}
		} else {
			*link, link = a, &ra.next
			if a = ra.next; a < 0 {
				*link = b
				return head, bt
			}
		}
	}
}

// runFirst reports whether the earliest pending entry is the run's head
// rather than cur's minimum; the caller has run ensureFront.
func (s *Sim) runFirst() bool {
	if s.runHead < 0 {
		return false
	}
	if len(s.cur) == 0 {
		return true
	}
	r, c := s.rec(s.runHead), s.cur[0]
	return r.at < c.at || r.at == c.at && r.seq < c.seq
}

// front returns the earliest pending entry; the caller has run
// ensureFront.
func (s *Sim) front() heapEnt {
	if s.runFirst() {
		r := s.rec(s.runHead)
		return heapEnt{at: r.at, seq: r.seq, id: s.runHead}
	}
	return s.cur[0]
}

// popFront removes and returns the earliest pending entry; the caller has
// run ensureFront.
func (s *Sim) popFront() heapEnt {
	if s.runFirst() {
		id := s.runHead
		r := s.rec(id)
		s.runHead = r.next
		return heapEnt{at: r.at, seq: r.seq, id: id}
	}
	return s.heapPopEnt(&s.cur)
}

// expandL1 relinks bucket l1[j]'s members across a fresh L0 window.
func (s *Sim) expandL1(j int) {
	s.l1Idx = j
	s.l0Win = (s.l1Win + int64(j)) << (g1Shift - g0Shift)
	s.curIdx = -1
	for id := s.bucketTake(int32(l0Buckets + j)); id >= 0; {
		r := s.rec(id)
		next := r.next
		s.bucketPut(int32((int64(r.at)>>g0Shift)-s.l0Win), id)
		id = next
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
		s.bucketPut(int32(l0Buckets+(int64(ent.at)>>g1Shift)-s.l1Win), ent.id)
	}
}

// heapPush appends ent to an indexed 4-ary heap and sifts it up.
func (s *Sim) heapPush(hp *[]heapEnt, code int32, ent heapEnt) {
	h := append(*hp, ent)
	*hp = h
	i := len(h) - 1
	r := s.rec(ent.id)
	r.loc = code
	r.pos = int32(i)
	s.heapUp(h, i)
}

// heapUp moves h[i] towards the root until its parent is not greater.
func (s *Sim) heapUp(h []heapEnt, i int) {
	ent := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		s.rec(h[i].id).pos = int32(i)
		i = p
	}
	h[i] = ent
	s.rec(ent.id).pos = int32(i)
}

// heapDown moves h[i] towards the leaves while a child is smaller,
// reporting whether it moved.
func (s *Sim) heapDown(h []heapEnt, i int) bool {
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
		s.rec(h[i].id).pos = int32(i)
		i = best
	}
	h[i] = ent
	s.rec(ent.id).pos = int32(i)
	return i != start
}

// heapPopEnt removes and returns the minimum entry of an indexed heap;
// callers re-home or release its record.
func (s *Sim) heapPopEnt(hp *[]heapEnt) heapEnt {
	h := *hp
	top := h[0]
	n := len(h) - 1
	last := h[n]
	*hp = h[:n]
	if n > 0 {
		h = h[:n]
		h[0] = last
		s.rec(last.id).pos = 0
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
		s.rec(last.id).pos = int32(i)
		if !s.heapDown(h, i) {
			s.heapUp(h, i)
		}
	}
}

// remove takes a pending record out of whichever structure holds it: a
// heap remove for cur/overflow, an unlink found by a walk from the head
// for the run, an O(1) unlink for a wheel bucket.
func (s *Sim) remove(id int32, r *evRec) {
	switch r.loc {
	case locCur:
		s.heapRemove(&s.cur, int(r.pos))
	case locOver:
		s.heapRemove(&s.overflow, int(r.pos))
	case locRun:
		if s.runHead == id {
			s.runHead = r.next
			break
		}
		p := s.rec(s.runHead)
		for p.next != id {
			p = s.rec(p.next)
		}
		p.next = r.next
	default:
		s.bucketUnlink(r.loc, id)
	}
	s.npend--
}
