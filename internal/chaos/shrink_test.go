package chaos

import (
	"fmt"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
)

// coldReplay is the replay of a campaign that builds a world per run.
func coldReplay(eng *harness.Engine, v harness.Version, o harness.Options, rc RunConfig) func(Schedule) (Result, error) {
	return func(s Schedule) (Result, error) { return Run(eng, v, o, s, rc) }
}

// TestShrinkerMinimizes seeds an invariant violation — a switch outage
// buried in a schedule with two harmless app crashes — and requires the
// shrinker to strip the noise: the minimal schedule must still violate
// the same invariant on a from-scratch replay (acceptance criterion) and
// must be 1-minimal (deleting any remaining entry makes the violation
// disappear).
func TestShrinkerMinimizes(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := Schedule{
		{At: 5 * time.Second, Fault: faults.AppCrash, Component: 1, Duration: 15 * time.Second},
		{At: 20 * time.Second, Fault: faults.SwitchDown, Component: 0, Duration: 50 * time.Second},
		{At: 80 * time.Second, Fault: faults.AppCrash, Component: 2, Duration: 15 * time.Second},
	}
	invs := []Invariant{AvailabilityAtLeast(0.95)}

	eng := harness.NewEngine(0)
	t0 := time.Now()
	min, viol, stats, err := Shrink(coldReplay(eng, harness.VMQ, o, rc), sched, invs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold: shrunk %d -> %d entries in %d replays (%d removed, %d shortened, %d deflapped) in %v: %s",
		len(sched), len(min), stats.Runs, stats.Removed, stats.Shortened, stats.Deflapped, time.Since(t0).Round(time.Millisecond), viol)

	// The shrink of a campaign forked from a warm snapshot forks its
	// candidates from that snapshot too: the same decisions on the same
	// results, without any candidate simulating the warm ramp.
	snap, err := WarmSnapshot(harness.NewEngine(0), harness.VMQ, o, rc)
	if err != nil {
		t.Fatal(err)
	}
	t0 = time.Now()
	fmin, fviol, fstats, err := Shrink(func(s Schedule) (Result, error) { return ResumeUncached(snap, s, rc) }, sched, invs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("forked: %d replays in %v (the warm-up, once, is not in it)", fstats.Runs, time.Since(t0).Round(time.Millisecond))
	if fmin.String() != min.String() || fviol != viol || fstats != stats {
		t.Fatalf("forked shrink diverged from the cold one:\n%s%v %+v\nwant\n%s%v %+v", fmin, fviol, fstats, min, viol, stats)
	}

	if viol.Invariant != "availability-at-least" {
		t.Fatalf("final violation is %v, want availability-at-least", viol)
	}
	if len(min) != 1 || min[0].Fault != faults.SwitchDown {
		t.Fatalf("minimal schedule should be the switch outage alone, got:\n%s", min)
	}
	if stats.Removed != 2 {
		t.Fatalf("Removed = %d, want 2 (both app crashes)", stats.Removed)
	}

	// Acceptance: the minimal schedule reproduces on a fresh, uncached
	// replay — exactly what its repro file will do.
	rep := NewRepro(harness.VMQ, o, rc, min, viol)
	res, viols, err := rep.Replay(invs)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range viols {
		if v.Invariant == viol.Invariant {
			found = true
		}
	}
	if !found {
		t.Fatalf("minimal schedule did not reproduce %q on replay (availability %.5f): %v",
			viol.Invariant, res.Availability, viols)
	}

	// 1-minimality: every surviving entry is necessary.
	for i := range min {
		cand := make(Schedule, 0, len(min)-1)
		cand = append(cand, min[:i]...)
		cand = append(cand, min[i+1:]...)
		r, err := Run(eng, harness.VMQ, o, cand, rc)
		if err != nil {
			t.Fatal(err)
		}
		if vs := Check(&r, invs); len(vs) != 0 {
			t.Fatalf("entry %d (%s) is removable: %v — schedule not minimal", i, min[i], vs)
		}
	}
}

// AvailabilityAtLeast is a parameterized floor for targeted experiments
// (the shrinker tests seed violations with it).
func AvailabilityAtLeast(min float64) Invariant {
	return Invariant{
		Name: "availability-at-least",
		Doc:  fmt.Sprintf("availability stays at or above %.3f", min),
		Check: func(r *Result) string {
			if r.Availability >= min {
				return ""
			}
			return fmt.Sprintf("availability %.5f below required %.3f", r.Availability, min)
		},
	}
}
