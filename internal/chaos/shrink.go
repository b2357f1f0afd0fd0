package chaos

import (
	"fmt"
	"time"
)

// ShrinkStats reports what the shrinker did.
type ShrinkStats struct {
	Runs      int // candidates judged (a revisited one is not replayed)
	Removed   int // entries deleted
	Shortened int // durations halved
	Deflapped int // flap variants reduced to steady faults
}

// minSpan is the shortest duration the shrinker reduces to; below this
// most faults stop mattering at all and the search just burns replays.
const minSpan = 10 * time.Second

// Shrink minimizes a schedule that violates an invariant: starting from
// a failing schedule, it greedily (1) deletes entries, (2) halves
// durations, and (3) strips flapping down to steady faults — keeping
// each mutation only if the *same* invariant still fails on replay — and
// loops to a fixpoint. Because every replay is deterministic, the
// returned minimal schedule reproduces the violation on every future
// replay; it is what goes into the repro file.
//
// replay plays a candidate the way the failing run was played: a cold
// Run for a campaign that builds a world per seed, ResumeUncached for one
// forked from a warm snapshot — whose candidates then fork too, and none
// re-simulates the warm ramp. The shrink keeps each replayed candidate's
// violations, keyed by schedule hash, for as long as it runs, so a
// revisited sub-schedule is not replayed and the worst case is
// O(entries²) replays.
func Shrink(replay func(Schedule) (Result, error), sched Schedule, invs []Invariant) (Schedule, Violation, ShrinkStats, error) {
	var stats ShrinkStats
	judged := map[uint64][]Violation{}
	violations := func(s Schedule) ([]Violation, error) {
		stats.Runs++
		h := s.Hash()
		if viols, ok := judged[h]; ok {
			return viols, nil
		}
		r, err := replay(s)
		if err != nil {
			return nil, err
		}
		judged[h] = Check(&r, invs)
		return judged[h], nil
	}

	// Establish the target: the first invariant, in catalog order, the
	// full schedule breaks.
	viols, err := violations(sched)
	if err != nil {
		return sched, Violation{}, stats, err
	}
	if len(viols) == 0 {
		return sched, Violation{}, stats, fmt.Errorf("chaos: schedule does not violate any given invariant; nothing to shrink")
	}
	target := viols[0]

	// stillFails replays a candidate and keeps it only if the same
	// invariant still fails: shrinking must not wander to a different
	// bug (other invariants failing alongside is fine).
	stillFails := func(s Schedule) (bool, error) {
		viols, err := violations(s)
		if err != nil {
			return false, err
		}
		for _, viol := range viols {
			if viol.Invariant == target.Invariant {
				return true, nil
			}
		}
		return false, nil
	}

	cur := sched.Canonical()
	for changed := true; changed; {
		changed = false

		// Pass 1: delete entries (latest first, so indices stay valid and
		// late "aftershock" entries go before the early root cause). A
		// correlated group is one deletable unit: removing a single member
		// would produce an event the generator could never emit, so the
		// candidate drops all entries sharing the member's group tag.
		triedGroup := map[int]bool{}
		for i := len(cur) - 1; i >= 0; i-- {
			var cand Schedule
			removed := 1
			if g := cur[i].Group; g != 0 {
				if triedGroup[g] {
					continue
				}
				triedGroup[g] = true
				cand = make(Schedule, 0, len(cur))
				removed = 0
				for _, e := range cur {
					if e.Group == g {
						removed++
						continue
					}
					cand = append(cand, e)
				}
			} else {
				cand = make(Schedule, 0, len(cur)-1)
				cand = append(cand, cur[:i]...)
				cand = append(cand, cur[i+1:]...)
			}
			ok, err := stillFails(cand)
			if err != nil {
				return cur, target, stats, err
			}
			if ok {
				cur = cand
				stats.Removed += removed
				changed = true
				if i > len(cur) {
					i = len(cur)
				}
			}
		}

		// Pass 2: halve durations down to minSpan.
		for i := range cur {
			if cur[i].Duration <= minSpan {
				continue
			}
			cand := make(Schedule, len(cur))
			copy(cand, cur)
			half := (cand[i].Duration / 2).Round(time.Second)
			if half < minSpan {
				half = minSpan
			}
			cand[i].Duration = half
			ok, err := stillFails(cand)
			if err != nil {
				return cur, target, stats, err
			}
			if ok {
				cur = cand
				stats.Shortened++
				changed = true
			}
		}

		// Pass 3: steady beats intermittent for a minimal repro.
		for i := range cur {
			if !cur[i].Flapping() {
				continue
			}
			cand := make(Schedule, len(cur))
			copy(cand, cur)
			cand[i].FlapOn, cand[i].FlapOff = 0, 0
			ok, err := stillFails(cand)
			if err != nil {
				return cur, target, stats, err
			}
			if ok {
				cur = cand
				stats.Deflapped++
				changed = true
			}
		}
	}

	// Re-derive the final violation from the minimal schedule so the
	// repro file's detail matches what replaying it will print.
	finals, err := violations(cur)
	if err != nil {
		return cur, target, stats, err
	}
	for _, viol := range finals {
		if viol.Invariant == target.Invariant {
			return cur, viol, stats, nil
		}
	}
	return cur, target, stats, fmt.Errorf("chaos: shrunken schedule no longer violates %q", target.Invariant)
}
