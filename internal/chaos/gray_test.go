package chaos

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
)

// grayReplaySchedule is the gray-engine acceptance schedule: all three
// partial-degradation classes (one flapping), plus a correlated power
// event taking a two-node rack, overlapping in one window. Injection
// starts at warmup(60s)+settle(10s)=70s absolute.
func grayReplaySchedule() Schedule {
	return Schedule{
		{At: 10 * time.Second, Fault: faults.NodeSlow, Component: 1, Duration: 40 * time.Second, Severity: 3},
		{At: 20 * time.Second, Fault: faults.LinkLossy, Component: 2, Duration: 45 * time.Second,
			FlapOn: 5 * time.Second, FlapOff: 3 * time.Second}, // severity 0: class default
		{At: 30 * time.Second, Fault: faults.DiskDegraded, Component: 6, Duration: 40 * time.Second, Severity: 8},
		{At: 45 * time.Second, Fault: faults.NodeCrash, Component: 2, Duration: 25 * time.Second, Group: 1},
		{At: 45 * time.Second, Fault: faults.NodeCrash, Component: 3, Duration: 25 * time.Second, Group: 1},
	}
}

// TestGrayReplayByteIdenticalViaRepro is the gray acceptance criterion:
// the schedule validates, serializes to a schema-2 repro file, and the
// run replayed from the loaded file is byte-identical to a direct
// uncached run — severity and group survive the JSON round trip all the
// way into the simulation.
func TestGrayReplayByteIdenticalViaRepro(t *testing.T) {
	sched := grayReplaySchedule()
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	o := fastOpts(1)
	rc := fastRun()

	direct, err := Run(harness.NewEngine(0), harness.VCOOP, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Serialize()

	rep := NewRepro(harness.VCOOP, o, rc, sched, Violation{Invariant: "gray-detected", Detail: "x"})
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"schema": 2`, `"severity": 3`, `"group": 1`, `"node-slow"`, `"link-lossy"`, `"disk-degraded"`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Fatalf("repro JSON missing %s:\n%s", field, data)
		}
	}
	back, err := LoadRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Schedule, sched.Canonical()) {
		t.Fatalf("gray schedule did not round-trip:\n%s\nvs\n%s", back.Schedule, sched.Canonical())
	}
	replayed, _, err := back.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayed.Serialize(); !bytes.Equal(got, want) {
		diffAt(t, "repro replay", want, got)
	}
}

// TestGraySnapshotMidFault pins snapshot/fork across the gray engine: the
// snapshot is taken at 118s absolute, while the slow node, the flapping
// lossy link, the degraded disk AND both members of the correlated crash
// are simultaneously active. The restored injector must carry the
// resolved severities and the group tag, and the fork must serialize
// byte-identically to the uninterrupted baseline.
func TestGraySnapshotMidFault(t *testing.T) {
	sched := grayReplaySchedule()
	o := fastOpts(1)
	rc := fastRun()
	const at = 118 * time.Second

	base, err := Run(harness.NewEngine(0), harness.VCOOP, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Serialize()

	paused, snap, err := RunWithSnapshotAt(harness.NewEngine(0), harness.VCOOP, o, sched, rc, at)
	if err != nil {
		t.Fatal(err)
	}
	if got := paused.Serialize(); !bytes.Equal(got, want) {
		diffAt(t, "paused gray run", want, got)
	}
	res, err := ResumeUncached(snap, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); !bytes.Equal(got, want) {
		diffAt(t, "restored gray run", want, got)
	}
}

// TestGrayFaultStateSurvivesRestore inspects the injector directly at the
// capture point: severity knobs (explicit and class-default-resolved) and
// the correlated group tag must survive a snapshot/restore, and the two
// worlds must continue identically through the repair wave.
func TestGrayFaultStateSurvivesRestore(t *testing.T) {
	sched := grayReplaySchedule().Canonical()
	o := fastOpts(1)
	rc := fastRun().withDefaults()

	r := newRunner(harness.NewEngine(0), harness.VCOOP, o, sched, rc)
	r.advance(118 * time.Second)

	snap, err := harness.Take(r.c, r.SnapExtra)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restoreRunner(snap, sched, rc)
	if err != nil {
		t.Fatal(err)
	}

	for _, in := range []*faults.Injector{r.c.Injector, r2.c.Injector} {
		a := in.ActiveAt(faults.NodeSlow, 1)
		if a == nil || a.Severity != 3 {
			t.Fatalf("node-slow slot = %+v, want severity 3", a)
		}
		a = in.ActiveAt(faults.LinkLossy, 2)
		if a == nil || a.Severity != faults.DefaultSeverity(faults.LinkLossy) {
			t.Fatalf("link-lossy slot = %+v, want the resolved class-default severity", a)
		}
		a = in.ActiveAt(faults.DiskDegraded, 6)
		if a == nil || a.Severity != 8 {
			t.Fatalf("disk-degraded slot = %+v, want severity 8", a)
		}
		for _, comp := range []int{2, 3} {
			a = in.ActiveAt(faults.NodeCrash, comp)
			if a == nil || a.Group != 1 {
				t.Fatalf("correlated crash slot %d = %+v, want group 1", comp, a)
			}
		}
	}

	// Both worlds run through every gray repair and must stay identical.
	r.c.Sim.RunUntil(145 * time.Second)
	r2.c.Sim.RunUntil(145 * time.Second)
	if r.c.Injector.ActiveCount() != 0 || r2.c.Injector.ActiveCount() != 0 {
		t.Fatalf("active slots after repairs: %d vs %d, want 0",
			r.c.Injector.ActiveCount(), r2.c.Injector.ActiveCount())
	}
	wantLog, gotLog := r.c.Log.Dump(), r2.c.Log.Dump()
	if wantLog != gotLog {
		diffAt(t, "mid-gray continuation log", []byte(wantLog), []byte(gotLog))
	}
}

// TestShrinkerGroupAsUnit: a correlated two-node power event buried in
// noise. The shrinker must delete the harmless crashes but treat the
// group as one atom — the minimal schedule is exactly the two-member
// group, never a half rack.
func TestShrinkerGroupAsUnit(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := Schedule{
		{At: 5 * time.Second, Fault: faults.AppCrash, Component: 1, Duration: 15 * time.Second},
		{At: 20 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 70 * time.Second, Group: 1},
		{At: 20 * time.Second, Fault: faults.NodeCrash, Component: 2, Duration: 70 * time.Second, Group: 1},
		{At: 80 * time.Second, Fault: faults.AppCrash, Component: 3, Duration: 15 * time.Second},
	}
	invs := []Invariant{AvailabilityAtLeast(0.95)}

	min, viol, stats, err := Shrink(coldReplay(harness.NewEngine(0), harness.VMQ, o, rc), sched, invs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shrunk %d -> %d entries in %d replays: %s", len(sched), len(min), stats.Runs, viol)

	if len(min) != 2 {
		t.Fatalf("minimal schedule has %d entries, want the intact group of 2:\n%s", len(min), min)
	}
	for _, e := range min {
		if e.Group != 1 || e.Fault != faults.NodeCrash {
			t.Fatalf("minimal schedule kept a non-group entry:\n%s", min)
		}
	}
	if stats.Removed != 2 {
		t.Fatalf("Removed = %d, want 2 (both app crashes)", stats.Removed)
	}

	// Acceptance: the minimal group reproduces on a fresh replay.
	rep := NewRepro(harness.VMQ, o, rc, min, viol)
	_, viols, err := rep.Replay(invs)
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
		t.Fatalf("minimal group did not reproduce %q on replay: %v", viol.Invariant, viols)
	}

	// Group-minimality: dropping the whole group clears the violation.
	r, err := Run(harness.NewEngine(0), harness.VMQ, o, Schedule{}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(&r, invs); len(vs) != 0 {
		t.Fatalf("empty schedule violates %v — the group was not the cause", vs)
	}
}

// TestGenerateGrayPhases pins the generator's layering contract: the
// Table 1 portion of a seed's schedule is identical with and without the
// gray phases, the draw is deterministic, correlated groups are
// rack-shaped atoms, and chase entries land inside a repair window. The
// -gray schedules themselves do not move: their digests at FME's fast
// options are pinned.
func TestGenerateGrayPhases(t *testing.T) {
	o := fastOpts(1)
	gray := GenConfig{Gray: true}
	var groups, chases int
	for seed := int64(1); seed <= 12; seed++ {
		base := Generate(seed, harness.VMQ, o, GenConfig{})
		ext := Generate(seed, harness.VMQ, o, gray)
		if err := ext.Validate(); err != nil {
			t.Fatalf("seed %d: extended schedule invalid: %v\n%s", seed, err, ext)
		}
		if !reflect.DeepEqual(ext, Generate(seed, harness.VMQ, o, gray)) {
			t.Fatalf("seed %d: gray generation not deterministic", seed)
		}

		// Base-phase invariance: every Table 1 entry survives verbatim.
		extra := map[Entry]int{}
		for _, e := range ext {
			extra[e]++
		}
		for _, e := range base {
			if extra[e] == 0 {
				t.Fatalf("seed %d: enabling gray phases perturbed base entry %s\nbase:\n%s\next:\n%s", seed, e, base, ext)
			}
			extra[e]--
		}

		// Correlated groups: rack-shaped, one At, one duration, crash or
		// link classes only.
		members := map[int]Schedule{}
		for _, e := range ext {
			if e.Group != 0 {
				members[e.Group] = append(members[e.Group], e)
			}
		}
		for id, m := range members {
			groups++
			if len(m) != harness.DefaultRackSize {
				t.Fatalf("seed %d: group %d has %d members, want %d:\n%s", seed, id, len(m), harness.DefaultRackSize, ext)
			}
			if m[0].At != m[1].At || m[0].Duration != m[1].Duration {
				t.Fatalf("seed %d: group %d members differ in At/Duration:\n%s", seed, id, ext)
			}
			if m[0].Fault != m[1].Fault || (m[0].Fault != faults.LinkDown && m[0].Fault != faults.NodeCrash) {
				t.Fatalf("seed %d: group %d has fault classes %v/%v", seed, id, m[0].Fault, m[1].Fault)
			}
			if m[1].Component-m[0].Component != 1 {
				t.Fatalf("seed %d: group %d is not a contiguous rack:\n%s", seed, id, ext)
			}
		}

		// Chase entries — what the gray phases added that is neither a
		// gray class nor a group member — are crashes starting inside the
		// repair window of a steady, independent entry.
		for e, n := range extra {
			if n == 0 || e.Group != 0 || faults.Gray(e.Fault) {
				continue
			}
			chases += n
			if e.Fault != faults.AppCrash && e.Fault != faults.NodeCrash {
				t.Fatalf("seed %d: chase entry %s is not a crash", seed, e)
			}
			inWindow := false
			for _, b := range ext {
				// The draw rounds to whole seconds, so the window is
				// closed at End+chaseWindow.
				if b != e && b.Group == 0 && !b.Flapping() && e.At >= b.End() && e.At <= b.End()+chaseWindow {
					inWindow = true
					break
				}
			}
			if !inWindow {
				t.Fatalf("seed %d: chase entry %s outside every repair window\n%s", seed, e, ext)
			}
		}
	}
	t.Logf("12 seeds: %d correlated groups, %d chases", groups, chases)
	if groups == 0 || chases == 0 {
		t.Fatalf("12 seeds drew %d correlated groups and %d chases, want at least one of each", groups, chases)
	}

	// The -gray schedules of reproduce's FME campaign, seeds 1-8.
	want := []uint64{
		0xc03e221c60049492, 0x0303d4d1b016ba30, 0x86fc62f2b4f73c4b, 0xe1154eb5b32cbbeb,
		0xcc752194a1eb104b, 0xcced231b890adc5c, 0x1860c070df75ed37, 0x79f264371c6d5cdc,
	}
	for i, h := range want {
		seed := int64(i + 1)
		if got := Generate(seed, harness.VFME, harness.FastOptions(1), gray).Hash(); got != h {
			t.Errorf("seed %d: -gray schedule hash %#016x, want %#016x", seed, got, h)
		}
	}
}

// TestGrayScheduleHashCompatibility: severity and group extend the
// schedule digest only when set, so every pre-gray schedule — cached
// runs, shipped repro files — keeps its hash.
func TestGrayScheduleHashCompatibility(t *testing.T) {
	plain := Schedule{
		{At: 10 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second},
	}
	// The digest of a severity/group-free schedule must be derived from
	// exactly the legacy fields: recompute it through a copy round-trip.
	withZero := Schedule{
		{At: 10 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second, Severity: 0, Group: 0},
	}
	if plain.Hash() != withZero.Hash() {
		t.Fatal("zero severity/group changed the schedule hash")
	}
	sev := Schedule{
		{At: 10 * time.Second, Fault: faults.NodeSlow, Component: 1, Duration: 30 * time.Second, Severity: 2},
	}
	sev2 := Schedule{
		{At: 10 * time.Second, Fault: faults.NodeSlow, Component: 1, Duration: 30 * time.Second, Severity: 3},
	}
	if sev.Hash() == sev2.Hash() {
		t.Fatal("severity not hashed")
	}
	grp := Schedule{
		{At: 10 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second, Group: 1},
	}
	if grp.Hash() == plain.Hash() {
		t.Fatal("group not hashed")
	}
}
