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
// schedules spanning every wheel tier (cur, L0, L1, overflow), stops of
// pending handles, stops of stale generation-counted handles, and
// deterministic in-callback respawns that land mid-drain — and demands
// the exact same fire sequence.

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
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)

		var (
			fired   []int      // real run: fire order by id
			pend    []refEvent // reference model
			seq     uint64     // model mirror of the kernel's seq counter
			nextID  int
			handles []Timer
			stopped = map[int]bool{} // ids whose Stop succeeded
			done    = map[int]bool{} // ids the real run fired
		)

		schedule := func(d time.Duration) {
			id := nextID
			nextID++
			seq++
			at := s.Now() + d
			var cb func()
			cb = func() {
				fired = append(fired, id)
				done[id] = true
				if cd, ok := childDelta(id); ok {
					cid := nextID
					nextID++
					seq++
					handles = append(handles, s.After(cd, func() {
						fired = append(fired, cid)
						done[cid] = true
					}))
					pend = append(pend, refEvent{at: s.Now() + cd, seq: seq, id: cid})
				}
			}
			handles = append(handles, s.After(d, cb))
			pend = append(pend, refEvent{at: at, seq: seq, id: id})
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
		// idOf names the pending event in a record.
		idOf := func(rid int32) int {
			for i, h := range handles {
				if h.id == rid && h.gen == s.rec(rid).gen {
					return i
				}
			}
			panic("pending record with no live handle")
		}

		// targeted stops, in one L0 and one L1 bucket with three or more
		// members, the head, a middle member and the tail, and the only
		// member of a one-member bucket of each tier, whose occupancy bit
		// must clear with it. cascaded, when non-nil, names events that
		// sat in an L1 bucket before the clock last moved: one of them
		// that has since been relinked into L0 is stopped first.
		targeted := func(cascaded map[int]bool) bool {
			if cascaded != nil {
				for code := int32(0); code < l0Buckets; code++ {
					if m := bucketMembers(s, code); len(m) > 0 && cascaded[idOf(m[len(m)/2])] {
						if !stopID(idOf(m[len(m)/2])) {
							return false
						}
						break
					}
				}
			}
			for _, tier := range [][2]int32{{0, l0Buckets}, {l0Buckets, l0Buckets + l1Buckets}} {
				multi, single := false, false
				for code := tier[0]; code < tier[1]; code++ {
					m := bucketMembers(s, code)
					switch {
					case len(m) >= 3 && !multi:
						multi = true
						for _, slot := range []int32{m[0], m[len(m)/2], m[len(m)-1]} {
							if !stopID(idOf(slot)) {
								return false
							}
						}
					case len(m) == 1 && !single:
						single = true
						if !stopID(idOf(m[0])) || bucketOccupied(s, code) {
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
					ids[idOf(slot)] = true
				}
			}
			return ids
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
			for i := 0; i < 20+rng.Intn(40); i++ {
				schedule(randDelay())
			}
			// Stop a random sample, then the targeted bucket positions.
			for i := range handles {
				if rng.Intn(4) == 0 && !stopID(i) {
					return false
				}
			}
			if !targeted(nil) {
				return false
			}
			// Advance partway, checking the fire order prefix as we go.
			until := s.Now() + time.Duration(rng.Intn(3000))*time.Millisecond
			was := inL1()
			s.RunUntil(until)
			if !wheelConsistent(s) || !targeted(was) {
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
				k++
			}
			if k != len(fired) {
				return false
			}
			fired = fired[:0]
		}

		// Drain everything left and compare the tail.
		s.Run()
		for len(pend) > 0 {
			if ev := refPop(&pend); len(fired) == 0 || fired[0] != ev.id {
				return false
			}
			fired = fired[1:]
		}
		return len(fired) == 0 && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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

// wheelConsistent checks the threaded lists: every occupied bucket's list
// is doubly linked, its head names the tail, every member records the
// bucket as its home and holds a callback, and the lists, cur and
// overflow together hold exactly the pending events.
func wheelConsistent(s *Sim) bool {
	n := len(s.cur) + len(s.overflow)
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
