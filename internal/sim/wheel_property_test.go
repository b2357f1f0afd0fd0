package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The hierarchical timer wheel must be observationally identical to a
// plain priority queue ordered by (deadline, schedule sequence). The
// property test below drives both against the same randomized script —
// schedules spanning every wheel tier (cur, L0, L1, overflow) and bursts
// that fill one granule, so a drained bucket becomes the run: short ones,
// long unsorted ones, long ones of one instant and ones whose 256 ns
// sub-granules each hold more than the insertion bound; stops of pending
// handles (a run's head, middle and tail among them, from outside and
// from inside its own drain), stops of stale
// generation-counted handles and of the firing event's own, deterministic
// in-callback respawns that land mid-drain, keys reserved now and armed
// later (some from inside the drain of their own granule), and a FIFO
// deadline list behind one wake that finds its deadline stopped and takes
// its count back — and demands the exact same fire sequence and
// fired-event count, and a VisitPending that lists exactly the pending
// events, the front first.

// refEvent is one entry in the reference model: a flat slice popped by
// (at, seq), the kernel's documented ordering contract.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// refPop removes and returns the minimum (at, seq) entry.
func refPop(pend *[]refEvent) refEvent {
	best := 0
	for i := 1; i < len(*pend); i++ {
		e, b := (*pend)[i], (*pend)[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	ev := (*pend)[best]
	*pend = append((*pend)[:best], (*pend)[best+1:]...)
	return ev
}

// childDelta decides, as a pure function of an event id, whether firing
// that event schedules a follow-up and how far out. Being id-determined
// lets the real run (inside the callback) and the reference model (at
// model pop time) make the identical decision without sharing state.
func childDelta(id int) (time.Duration, bool) {
	h := uint64(id) * 0x9e3779b97f4a7c15
	if h%4 != 0 || id >= 4000 {
		return 0, false
	}
	// Span the tiers: sub-granule (cur), L0 (<16.7ms), L1 (<4.3s).
	switch (h >> 8) % 3 {
	case 0:
		return time.Duration(h>>16) % (60 * time.Microsecond), true
	case 1:
		return time.Duration(h>>16) % (15 * time.Millisecond), true
	default:
		return time.Duration(h>>16) % (3 * time.Second), true
	}
}

// TestQuickWheelMatchesReferenceHeap: across random schedules, stops,
// stale stops and in-callback respawns, the wheel fires the exact event
// sequence a flat (deadline, seq) priority queue would.
func TestQuickWheelMatchesReferenceHeap(t *testing.T) {
	// Coverage of the run, summed over every seed: stops of its entries
	// between drains and from inside one (at its head, middle and tail),
	// reserved keys armed into the granule being drained, and L0 buckets
	// that reach a drain longer than the insertion bound: unsorted, of
	// one instant, and with a sub-granule that holds more than the bound
	// out of order.
	var runStops, lateArms, longUnsorted, longInstant, longSub int
	var drainStops [3]int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)

		var (
			fired   []int      // real run: fire order by id
			pend    []refEvent // reference model
			nextID  int
			handles []Timer
			stopped = map[int]bool{} // ids whose Stop succeeded
			done    = map[int]bool{} // ids the real run fired
			pops    uint64           // events the reference fired
			bad     bool             // a check inside a callback failed
		)
		var stopInRun, armReserved func(inDrain bool)

		// fire records a fire; the event's own handle is already stale.
		fire := func(id int) {
			fired = append(fired, id)
			done[id] = true
			if handles[id].Stop() {
				bad = true
			}
		}
		schedule := func(d time.Duration) {
			id := nextID
			nextID++
			at, seq := s.Now()+d, s.seq // the key After is about to hand out
			var cb func()
			cb = func() {
				fire(id)
				if cd, ok := childDelta(id); ok {
					cid := nextID
					nextID++
					pend = append(pend, refEvent{at: s.Now() + cd, seq: s.seq, id: cid})
					handles = append(handles, s.After(cd, func() { fire(cid) }))
				}
				switch id % 6 {
				case 1, 3:
					stopInRun(true)
				case 4:
					armReserved(true)
				}
			}
			handles = append(handles, s.After(d, cb))
			pend = append(pend, refEvent{at: at, seq: seq, id: id})
		}

		// Reserved keys: minted now, armed later unless passed first, when
		// nothing fires for them.
		var reserved []refEvent
		reserve := func(d time.Duration) {
			reserved = append(reserved, refEvent{at: s.Now() + d, seq: s.Reserve()})
		}
		armReserved = func(inDrain bool) {
			kept := reserved[:0]
			for _, k := range reserved {
				switch {
				case s.Passed(k.at, k.seq):
				case rng.Intn(2) == 0:
					kept = append(kept, k)
				default:
					id := nextID
					nextID++
					h := s.RestoreAtArg(k.at, k.seq, callFunc, func() { fire(id) })
					handles = append(handles, h)
					pend = append(pend, refEvent{at: k.at, seq: k.seq, id: id})
					if inDrain && s.runHead >= 0 && s.rec(h.id).loc == locCur {
						lateArms++
					}
				}
			}
			reserved = kept
		}

		// A deadline list: every deadline spans dlSpan, so arming order is
		// key order; one wake, armed at a key no later than the head's,
		// fires a due head and moves on from a stopped one uncounted.
		const dlSpan = 2 * time.Second
		var (
			dls       []refEvent // listed deadlines, oldest first
			isDL      = map[int]bool{}
			wakeArmed bool
			wake      func()
		)
		armWake := func(k refEvent) {
			wakeArmed = true
			s.RestoreAtArg(k.at, k.seq, callFunc, wake)
		}
		wake = func() {
			wakeArmed = false
			if len(dls) == 0 || !s.Passed(dls[0].at, dls[0].seq) {
				s.AdjustFired(-1)
				if len(dls) > 0 {
					armWake(dls[0])
				}
				return
			}
			ev := dls[0]
			dls = dls[1:]
			if len(dls) > 0 {
				armWake(dls[0])
			}
			fired = append(fired, ev.id)
			done[ev.id] = true
		}
		deadline := func() {
			id := nextID
			nextID++
			ev := refEvent{at: s.Now() + dlSpan, seq: s.Reserve(), id: id}
			handles = append(handles, Timer{}) // keeps ids and handles aligned
			isDL[id] = true
			dls = append(dls, ev)
			pend = append(pend, ev)
			if !wakeArmed {
				armWake(ev)
			}
		}
		stopDeadline := func(j int) {
			id := dls[j].id
			dls = append(dls[:j], dls[j+1:]...)
			for i := range pend {
				if pend[i].id == id {
					pend = append(pend[:i], pend[i+1:]...)
					break
				}
			}
		}

		// stopID stops handle i, keeping the reference model in step. A
		// handle whose event already fired or was already stopped is
		// stale: its generation count must make Stop a no-op that reports
		// false.
		stopID := func(i int) bool {
			h := handles[i]
			ok := h.Stop()
			if ok != (!done[i] && !stopped[i]) {
				return false // stale handle cancelled something, or live stop missed
			}
			if ok {
				stopped[i] = true
				for j := range pend {
					if pend[j].id == i {
						pend = append(pend[:j], pend[j+1:]...)
						break
					}
				}
			}
			return !h.Stop() // double Stop is always stale
		}
		// idOf names the pending event in a record; -1 for a wake, which
		// has no handle.
		idOf := func(rid int32) int {
			for i, h := range handles {
				if h.s != nil && h.id == rid && h.gen == s.rec(rid).gen {
					return i
				}
			}
			return -1
		}
		// handled lists the ids of a bucket's members, nil when a wake is
		// among them.
		handled := func(m []int32) []int {
			ids := make([]int, len(m))
			for k, slot := range m {
				if ids[k] = idOf(slot); ids[k] < 0 {
					return nil
				}
			}
			return ids
		}

		// runMembers lists the ids of the run's entries, head first, nil
		// when a wake is among them.
		runMembers := func() []int {
			var m []int32
			for id := s.runHead; id >= 0; id = s.rec(id).next {
				m = append(m, id)
			}
			return handled(m)
		}
		// stopInRun stops the run's head, middle or tail entry, picked at
		// random, from inside a callback of its drain when inDrain is set.
		stopInRun = func(inDrain bool) {
			m := runMembers()
			if len(m) == 0 {
				return
			}
			at := rng.Intn(3)
			if !stopID(m[at*(len(m)-1)/2]) || !wheelConsistent(s) {
				bad = true
			}
			if inDrain {
				drainStops[at]++
			}
		}
		// classify counts the L0 buckets about to drain longer than the
		// insertion bound, by the path their drain takes.
		classify := func() {
			for code := int32(0); code < l0Buckets; code++ {
				m := bucketMembers(s, code)
				if len(m) <= sortInline {
					continue
				}
				ordered, instant := true, true
				sub := map[int64][]*evRec{}
				for k, id := range m {
					r := s.rec(id)
					if k > 0 {
						ordered = ordered && recLess(s.rec(m[k-1]), r)
						instant = instant && r.at == s.rec(m[0]).at
					}
					key := int64(r.at) >> (g0Shift - 8)
					sub[key] = append(sub[key], r)
				}
				switch {
				case instant:
					longInstant++
				case !ordered:
					longUnsorted++
				}
				for _, rs := range sub {
					if len(rs) <= sortInline {
						continue
					}
					for k := 1; k < len(rs); k++ {
						if recLess(rs[k], rs[k-1]) {
							longSub++
							break
						}
					}
				}
			}
		}

		// targeted stops the head, the middle entry and the tail of a run
		// of three or more, in one L0 and one L1 bucket with three or more
		// members, the head, a middle member and the tail, and the only
		// member of a one-member bucket of each tier, whose occupancy bit
		// must clear with it. cascaded, when non-nil, names events that
		// sat in an L1 bucket before the clock last moved: one of them
		// that has since been relinked into L0 is stopped first.
		targeted := func(cascaded map[int]bool) bool {
			if m := runMembers(); len(m) >= 3 {
				runStops++
				for _, id := range []int{m[0], m[len(m)/2], m[len(m)-1]} {
					if !stopID(id) || !wheelConsistent(s) {
						return false
					}
				}
			}
			if cascaded != nil {
				for code := int32(0); code < l0Buckets; code++ {
					if m := handled(bucketMembers(s, code)); len(m) > 0 && cascaded[m[len(m)/2]] {
						if !stopID(m[len(m)/2]) {
							return false
						}
						break
					}
				}
			}
			for _, tier := range [][2]int32{{0, l0Buckets}, {l0Buckets, l0Buckets + l1Buckets}} {
				multi, single := false, false
				for code := tier[0]; code < tier[1]; code++ {
					m := handled(bucketMembers(s, code))
					switch {
					case len(m) >= 3 && !multi:
						multi = true
						for _, id := range []int{m[0], m[len(m)/2], m[len(m)-1]} {
							if !stopID(id) {
								return false
							}
						}
					case len(m) == 1 && !single:
						single = true
						if !stopID(m[0]) || bucketOccupied(s, code) {
							return false
						}
					}
				}
			}
			return wheelConsistent(s)
		}
		inL1 := func() map[int]bool {
			ids := map[int]bool{}
			for code := int32(l0Buckets); code < l0Buckets+l1Buckets; code++ {
				for _, slot := range bucketMembers(s, code) {
					if id := idOf(slot); id >= 0 {
						ids[id] = true
					}
				}
			}
			return ids
		}

		// visitMatches: VisitPending lists exactly the pending kernel
		// events — every one the reference has yet to pop that is no
		// deadline, and
		// the wake when it is armed — in firing order, and the first is the
		// front peekMin reads.
		visitMatches := func() bool {
			var keys []refEvent
			s.VisitPending(func(at time.Duration, seq uint64, _ func(any), _ any) {
				keys = append(keys, refEvent{at: at, seq: seq})
			})
			if len(keys) != s.Pending() {
				return false
			}
			seen := map[uint64]bool{}
			for k, e := range keys {
				if k > 0 && (e.at < keys[k-1].at || e.at == keys[k-1].at && e.seq <= keys[k-1].seq) {
					return false
				}
				seen[e.seq] = true
			}
			if at, ok := s.peekMin(); ok != (len(keys) > 0) || ok && at != keys[0].at {
				return false
			}
			want := 0
			if wakeArmed {
				want++
			}
			for _, e := range pend {
				if !isDL[e.id] {
					want++
					if !seen[e.seq] {
						return false
					}
				}
			}
			return want == len(keys)
		}

		// randDelay mixes magnitudes so schedules land in every tier:
		// the cur heap, an L0 bucket, an L1 bucket, or the overflow heap
		// (past the ~4.3s L1 horizon).
		randDelay := func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return time.Duration(rng.Intn(65_000)) // sub-granule
			case 1:
				return time.Duration(rng.Intn(16)) * time.Millisecond
			case 2:
				return time.Duration(rng.Intn(4000)) * time.Millisecond
			default:
				return 4*time.Second + time.Duration(rng.Intn(20))*time.Second
			}
		}

		phases := 3 + rng.Intn(3)
		for p := 0; p < phases; p++ {
			armReserved(false)
			for i := 0; i < 20+rng.Intn(40); i++ {
				switch rng.Intn(11) {
				case 0:
					if n := len(pend); n > 0 && rng.Intn(2) == 0 {
						// At a scheduled event's deadline, under an older
						// seq than the run that event will be drained in.
						reserve(max(pend[n-1].at-s.Now(), 1))
					} else {
						reserve(randDelay() + 1)
					}
				case 1:
					deadline()
				case 2:
					// A burst into one granule: its bucket drains as a run.
					base := randDelay()
					for range 3 + rng.Intn(8) {
						schedule(base + time.Duration(rng.Intn(3))*time.Microsecond)
					}
				case 8:
					// A long burst, out of order: spread over sub-granules.
					base := randDelay()
					for range sortInline + 1 + rng.Intn(24) {
						schedule(base + time.Duration(rng.Intn(40))*time.Microsecond)
					}
				case 9:
					// A long burst of one instant, in seq order.
					base := randDelay()
					for range sortInline + 1 + rng.Intn(24) {
						schedule(base)
					}
				case 10:
					// A long burst within 200 ns: one sub-granule, out of
					// order, merge-sorted.
					base := randDelay()
					for range sortInline + 1 + rng.Intn(24) {
						schedule(base + time.Duration(rng.Intn(200)))
					}
				default:
					schedule(randDelay())
				}
			}
			// Stop a random sample, then the targeted bucket positions.
			for i := range handles {
				if rng.Intn(4) == 0 && !isDL[i] && !stopID(i) {
					return false
				}
			}
			for j := len(dls) - 1; j >= 0; j-- {
				if rng.Intn(2) == 0 {
					stopDeadline(j)
				}
			}
			if !targeted(nil) {
				return false
			}
			// Advance partway, checking the fire order prefix as we go.
			until := s.Now() + time.Duration(rng.Intn(3000))*time.Millisecond
			classify()
			was := inL1()
			s.RunUntil(until)
			if bad || !wheelConsistent(s) || !targeted(was) {
				return false
			}
			k := 0
			for len(pend) > 0 {
				best := pend[0]
				for _, e := range pend[1:] {
					if e.at < best.at || (e.at == best.at && e.seq < best.seq) {
						best = e
					}
				}
				if best.at > until {
					break
				}
				if ev := refPop(&pend); k >= len(fired) || fired[k] != ev.id {
					return false
				}
				pops++
				k++
			}
			if k != len(fired) || s.EventsFired() != pops || !visitMatches() {
				return false
			}
			// A completed RunUntil has passed every key up to its end.
			for _, r := range reserved {
				if s.Passed(r.at, r.seq) != (r.at <= until) {
					return false
				}
			}
			fired = fired[:0]
		}

		// Drain everything left and compare the tail.
		s.Run()
		if bad {
			return false
		}
		for len(pend) > 0 {
			if ev := refPop(&pend); len(fired) == 0 || fired[0] != ev.id {
				return false
			}
			pops++
			fired = fired[1:]
		}
		return len(fired) == 0 && s.Pending() == 0 && s.EventsFired() == pops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	t.Logf("run stops: %d targeted, %v (head, middle, tail) from inside a drain; %d reserved keys armed into a draining granule", runStops, drainStops, lateArms)
	t.Logf("buckets over %d entries: %d unsorted, %d of one instant; %d sub-granules over %d out of order", sortInline, longUnsorted, longInstant, longSub, sortInline)
	if runStops == 0 || min(drainStops[0], drainStops[1], drainStops[2]) == 0 || lateArms == 0 ||
		longUnsorted == 0 || longInstant == 0 || longSub == 0 {
		t.Errorf("the script never reached a case of the run: %d targeted stops, %v in-drain stops, %d late arms, %d long unsorted buckets, %d long buckets of one instant, %d long sub-granules",
			runStops, drainStops, lateArms, longUnsorted, longInstant, longSub)
	}
}

// bucketMembers lists a wheel bucket's record ids from head to tail.
func bucketMembers(s *Sim, code int32) []int32 {
	head, occ, i := s.bucket(code)
	if !occ.has(i) {
		return nil
	}
	var m []int32
	for id := *head; id >= 0; id = s.rec(id).next {
		m = append(m, id)
	}
	return m
}

func bucketOccupied(s *Sim, code int32) bool {
	_, occ, i := s.bucket(code)
	return occ.has(i)
}

// wheelConsistent checks the threaded lists and the run: every occupied
// bucket's list is doubly linked, its head names the tail, every member
// records the bucket as its home and holds a callback; the run's list is
// in strict (at, seq) order and its members record the run as their home
// and hold a callback; and the lists, the run, cur and overflow together
// hold exactly the pending events.
func wheelConsistent(s *Sim) bool {
	n := len(s.cur) + len(s.overflow)
	var last *evRec
	for id := s.runHead; id >= 0; id = s.rec(id).next {
		r := s.rec(id)
		if last != nil && !recLess(last, r) || r.loc != locRun || r.arg == nil || n > s.Pending() {
			return false
		}
		last = r
		n++
	}
	for code := int32(0); code < l0Buckets+l1Buckets; code++ {
		head, _, _ := s.bucket(code)
		if bucketOccupied(s, code) && *head < 0 {
			return false
		}
		m := bucketMembers(s, code)
		if len(m) == 0 {
			continue
		}
		if s.rec(m[0]).prev != m[len(m)-1] {
			return false
		}
		for k, id := range m {
			r := s.rec(id)
			if r.loc != code || r.arg == nil {
				return false
			}
			if k > 0 && r.prev != m[k-1] {
				return false
			}
		}
		n += len(m)
	}
	return n == s.Pending()
}
