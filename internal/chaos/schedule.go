// Package chaos is the repository's compound-fault regime: where the
// paper's methodology (§5) measures one fault at a time, chaos campaigns
// drive the same simulated cluster through seeded multi-fault schedules
// — overlapping faults, intermittent (flapping) variants, partial repair
// — and check a catalog of cluster invariants against the outcome. The
// deterministic engine (PR 1) and the determinism lints (PR 2) buy the
// property chaos testing usually lacks: every campaign replays
// bit-identically from its seed, so a violated invariant shrinks to a
// minimal schedule and ships as a runnable repro file.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"press/internal/faults"
)

// Entry is one scheduled fault: inject fault class Fault on component
// Component at offset At from the schedule's start, repair it Duration
// later. A non-zero FlapOn/FlapOff pair makes the fault intermittent
// (link flap, disk stutter): its effect toggles at that cadence for the
// whole Duration, then repairs for good.
type Entry struct {
	At        time.Duration
	Fault     faults.Type
	Component int
	Duration  time.Duration
	FlapOn    time.Duration
	FlapOff   time.Duration
	// Severity sets a gray class's intensity (0 = class default); it is
	// invalid on binary classes.
	Severity float64
	// Group > 0 tags this entry as a member of a correlated fault event
	// (switch-takes-rack, power event). All members of a group share one
	// At — they are injected atomically at the same instant — and the
	// shrinker deletes a group only as a whole.
	Group int
}

// Flapping reports whether the entry is an intermittent variant.
func (e Entry) Flapping() bool { return e.FlapOn > 0 && e.FlapOff > 0 }

// End is the repair offset.
func (e Entry) End() time.Duration { return e.At + e.Duration }

func (e Entry) String() string {
	s := fmt.Sprintf("%s+%s %v/%d", e.At, e.Duration, e.Fault, e.Component)
	if e.Flapping() {
		s += fmt.Sprintf(" flap(%s/%s)", e.FlapOn, e.FlapOff)
	}
	if e.Severity != 0 {
		s += fmt.Sprintf(" sev=%g", e.Severity)
	}
	if e.Group != 0 {
		s += fmt.Sprintf(" group=%d", e.Group)
	}
	return s
}

// Schedule is a fault schedule: entries sorted by (At, Fault,
// Component). The zero schedule is a fault-free run.
type Schedule []Entry

// Canonical returns the schedule sorted into its canonical order. Hash,
// String and Validate all operate on the canonical order, so schedules
// that differ only by entry permutation are the same schedule.
func (s Schedule) Canonical() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Fault != out[j].Fault {
			return out[i].Fault < out[j].Fault
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// Horizon is the last repair offset (0 for an empty schedule).
func (s Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, e := range s {
		if e.End() > h {
			h = e.End()
		}
	}
	return h
}

// Overlaps counts entry pairs whose active windows intersect — the
// acceptance criterion's "≥ 2 overlapping faults" is Overlaps() ≥ 1.
func (s Schedule) Overlaps() int {
	c := s.Canonical()
	n := 0
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if c[j].At < c[i].End() {
				n++
			}
		}
	}
	return n
}

// Validate rejects malformed schedules: negative offsets, non-positive
// durations, one-sided flap specs, and two entries occupying the same
// (fault, component) slot at overlapping times (the injector would
// refuse the second anyway; a valid schedule never asks).
func (s Schedule) Validate() error {
	c := s.Canonical()
	lastEnd := map[[2]int]time.Duration{}
	groupAt := map[int]time.Duration{}
	for i, e := range c {
		if e.At < 0 {
			return fmt.Errorf("chaos: entry %d (%s): negative offset", i, e)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("chaos: entry %d (%s): non-positive duration", i, e)
		}
		if (e.FlapOn > 0) != (e.FlapOff > 0) {
			return fmt.Errorf("chaos: entry %d (%s): flap needs both on and off spans", i, e)
		}
		if e.Fault < 0 || e.Fault >= faults.Type(len(faults.AllTypes())) {
			return fmt.Errorf("chaos: entry %d (%s): unknown fault class", i, e)
		}
		if err := faults.ValidateSeverity(e.Fault, e.Severity); err != nil {
			return fmt.Errorf("chaos: entry %d (%s): %v", i, e, err)
		}
		if e.Group < 0 {
			return fmt.Errorf("chaos: entry %d (%s): negative group", i, e)
		}
		if e.Group > 0 {
			if at, ok := groupAt[e.Group]; ok && at != e.At {
				return fmt.Errorf("chaos: entry %d (%s): correlated group %d members disagree on At", i, e, e.Group)
			}
			groupAt[e.Group] = e.At
		}
		key := [2]int{int(e.Fault), e.Component}
		if end, ok := lastEnd[key]; ok && e.At < end {
			return fmt.Errorf("chaos: entry %d (%s): overlaps an earlier entry on the same slot", i, e)
		}
		lastEnd[key] = e.End()
	}
	return nil
}

// String renders the canonical schedule one entry per line.
func (s Schedule) String() string {
	c := s.Canonical()
	var b strings.Builder
	for _, e := range c {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash is a stable FNV-64a digest of the canonical schedule. Repro files
// are named by it, a snapshot armed with a schedule checks it on resume,
// and a shrink keys the candidates it has replayed on it.
func (s Schedule) Hash() uint64 {
	h := fnv.New64a()
	for _, e := range s.Canonical() {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d\n",
			e.At, e.Fault, e.Component, e.Duration, e.FlapOn, e.FlapOff)
		// Severity/group feed the digest only when set, so every pre-gray
		// schedule keeps its original hash (and its repro files stay
		// valid).
		if e.Severity != 0 || e.Group != 0 {
			fmt.Fprintf(h, "sev=%g|group=%d\n", e.Severity, e.Group)
		}
	}
	return h.Sum64()
}
