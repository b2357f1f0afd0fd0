package chaos

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/snapshot"
)

// diffAt renders the first divergence between two serialized runs.
func diffAt(t *testing.T, what string, want, got []byte) {
	t.Helper()
	a, b := string(want), string(got)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 160
			if lo < 0 {
				lo = 0
			}
			hi := i + 160
			if hi > n {
				hi = n
			}
			t.Fatalf("%s diverged at byte %d\n--- uninterrupted ---\n...%s\n--- restored ---\n...%s",
				what, i, a[lo:hi], b[lo:hi])
		}
	}
	t.Fatalf("%s diverged: lengths %d vs %d", what, len(want), len(got))
}

// TestSnapshotRestoreByteIdentical is the snapshot engine's correctness
// bar: the acceptance campaign is paused at the warm-fork point, mid
// compound fault, and mid recovery; each pause captures a snapshot, the
// paused run finishes (and must match the never-paused baseline), and a
// run restored from each snapshot must serialize byte-for-byte equal to
// the baseline — same counters, availability, verdicts, throughput
// series, and full event log. On every version the snapshot tests cover.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()

	// t0 = warmup(60s) + settle(10s) = 70s; faults span 80s..140s; drain
	// verdict at 185s.
	cases := []struct {
		name string
		at   time.Duration
	}{
		// mid-fault doubles as the regression pin for the typed-nil ref
		// bugs the snapshot audit found: a reaped conn's nil peer and an
		// in-flight dialSyn's nil local half both crashed the conn-table
		// save until the save side learned to encode them as ref 0.
		{"warmup-end", 70 * time.Second},    // pre-arm: the warm-fork point
		{"mid-fault", 100 * time.Second},    // node 1 crashed AND node 2's link flapping
		{"mid-recovery", 186 * time.Second}, // past the drain verdict
		// What the membership and FME daemons add (the other versions just
		// take three more captures). On FME at seed 1: node 0 detects node
		// 1's silence at 95 s and commits its exclusion at 97.5 s, when the
		// ack timeout fires for unreachable node 2; node 3 hangs at 110 s,
		// its FME daemon restarts the application at 120.49 s and the
		// process comes back 10 s later.
		{"mid-2PC", 96 * time.Second},
		{"mid-probe", 116 * time.Second}, // an HTTP probe of the hung server, one second into its two
		{"mid-restart", 125 * time.Second},
	}
	for _, v := range snapVersions() {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			base, err := RunUncached(harness.NewEngine(0), v, o, sched, rc)
			if err != nil {
				t.Fatal(err)
			}
			want := base.Serialize()
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					paused, snap, err := RunWithSnapshotAt(harness.NewEngine(0), v, o, sched, rc, tc.at)
					if err != nil {
						t.Fatal(err)
					}
					if got := paused.Serialize(); !bytes.Equal(got, want) {
						diffAt(t, "paused run", want, got)
					}
					if snap.At != tc.at {
						t.Fatalf("snapshot captured at %v, want %v", snap.At, tc.at)
					}
					res, err := ResumeUncached(snap, sched, rc)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Serialize(); !bytes.Equal(got, want) {
						diffAt(t, "restored run", want, got)
					}
				})
			}
		})
	}
}

// TestWarmForkMatchesCold pins the warm-fork contract: forking the
// memoized warm snapshot and arming a schedule produces the exact
// Result the cold path produces for the same world and schedule.
func TestWarmForkMatchesCold(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()
	for _, v := range snapVersions() {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			eng := harness.NewEngine(0)
			snap, err := WarmSnapshot(eng, v, o, rc)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunUncached(harness.NewEngine(0), v, o, sched, rc)
			if err != nil {
				t.Fatal(err)
			}
			fork, err := ResumeUncached(snap, sched, rc)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := cold.Serialize(), fork.Serialize(); !bytes.Equal(got, want) {
				diffAt(t, "warm fork", want, got)
			}

			// The memoized entry point returns the same result and actually
			// lands in the snapshot memo table, not the episode/campaign caches.
			ep0, camp0, sat0 := eng.MemoStats()
			res, err := RunFromSnapshot(eng, snap, sched, rc)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := cold.Serialize(), res.Serialize(); !bytes.Equal(got, want) {
				diffAt(t, "memoized fork", want, got)
			}
			if eng.SnapMemoStats() != 2 { // the warm snapshot and this fork
				t.Fatalf("keyed memo holds %d entries after WarmSnapshot + RunFromSnapshot, want 2", eng.SnapMemoStats())
			}
			if ep1, camp1, sat1 := eng.MemoStats(); ep1 != ep0 || camp1 != camp0 || sat1 != sat0 {
				t.Fatalf("fork run touched the cold-start caches: %d/%d/%d -> %d/%d/%d",
					ep0, camp0, sat0, ep1, camp1, sat1)
			}
		})
	}
}

// TestSnapshotForkProperty is the randomized pin: for a random pause
// time anywhere in the run, two forks of the same snapshot with the
// same schedule serialize identically, and a different schedule either
// diverges (pre-arm snapshots) or is rejected (armed snapshots).
func TestSnapshotForkProperty(t *testing.T) {
	for _, v := range snapVersions() {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			forkProperty(t, v)
		})
	}
}

func forkProperty(t *testing.T, v harness.Version) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()
	altSched := Schedule{
		{At: 12 * time.Second, Fault: faults.AppCrash, Component: 0, Duration: 25 * time.Second},
	}

	base, err := RunUncached(harness.NewEngine(0), v, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Serialize()
	horizon := base.End // covers warmup through recovery and final observation
	const warmEnd = 70 * time.Second

	check := func(raw uint32) bool {
		at := time.Duration(raw) % horizon
		_, snap, err := RunWithSnapshotAt(harness.NewEngine(0), v, o, sched, rc, at)
		if err != nil {
			t.Logf("at=%v: %v", at, err)
			return false
		}
		a, err := ResumeUncached(snap, sched, rc)
		if err != nil {
			t.Logf("at=%v first fork: %v", at, err)
			return false
		}
		b, err := ResumeUncached(snap, sched, rc)
		if err != nil {
			t.Logf("at=%v second fork: %v", at, err)
			return false
		}
		sa, sb := a.Serialize(), b.Serialize()
		if !bytes.Equal(sa, sb) {
			t.Logf("at=%v: same-schedule forks diverged", at)
			return false
		}
		if !bytes.Equal(sa, want) {
			t.Logf("at=%v: fork diverged from uninterrupted baseline", at)
			return false
		}
		alt, err := ResumeUncached(snap, altSched, rc)
		if at < warmEnd {
			// Pre-arm: the fork accepts any schedule and must diverge.
			if err != nil {
				t.Logf("at=%v: pre-arm fork rejected new schedule: %v", at, err)
				return false
			}
			if bytes.Equal(alt.Serialize(), sa) {
				t.Logf("at=%v: different schedules produced identical runs", at)
				return false
			}
		} else if err == nil {
			t.Logf("at=%v: armed snapshot accepted a different schedule", at)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsRoundTripMidFlap is the injector round-trip: the snapshot
// is taken while node 2's link is mid-flap and node 1's crash is
// already repaired (partial repair). The restored injector must carry
// the same slot occupancy, its flap toggle must keep firing, and the
// ErrActive/ErrNotActive contracts must survive restore.
func TestFaultsRoundTripMidFlap(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun().withDefaults()
	sched := replaySchedule().Canonical()

	// 125s: crash (80s..120s) repaired, flap (95s..140s) still active.
	r := newRunner(harness.NewEngine(0), harness.VCOOP, o, sched, rc)
	r.advance(125 * time.Second)
	wantActive := r.c.Injector.ActiveCount()
	if wantActive == 0 {
		t.Fatal("expected active faults at the capture point")
	}
	if r.c.Injector.ActiveAt(faults.LinkDown, 2) == nil {
		t.Fatal("link flap not active at the capture point")
	}
	snap, err := snapshot.Take(r.c, r)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restoreRunner(snap, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	in := r2.c.Injector
	if got := in.ActiveCount(); got != wantActive {
		t.Fatalf("restored injector has %d active slots, want %d", got, wantActive)
	}
	a := in.ActiveAt(faults.LinkDown, 2)
	if a == nil {
		t.Fatal("restored injector lost the active link flap")
	}
	if in.ActiveAt(faults.NodeCrash, 1) != nil {
		t.Fatal("restored injector resurrected the repaired node crash")
	}

	// The flap toggle timer keeps firing on the restored world exactly
	// as on the paused original: both logs must stay identical through
	// several on/off cycles.
	r.c.Sim.RunUntil(138 * time.Second)
	r2.c.Sim.RunUntil(138 * time.Second)
	wantLog, gotLog := r.c.Log.Dump(), r2.c.Log.Dump()
	if wantLog != gotLog {
		diffAt(t, "mid-flap continuation log", []byte(wantLog), []byte(gotLog))
	}

	// Slot occupancy and the typed-error contracts.
	if _, err := in.Inject(faults.LinkDown, 2); !errors.Is(err, faults.ErrActive) {
		t.Fatalf("re-injecting an occupied slot: err=%v, want ErrActive", err)
	}
	if err := a.Repair(); err != nil {
		t.Fatalf("repairing the restored flap: %v", err)
	}
	if err := a.Repair(); !errors.Is(err, faults.ErrNotActive) {
		t.Fatalf("double repair: err=%v, want ErrNotActive", err)
	}
}

// firstDiff returns the offset of the first byte at which a and b differ
// (the shorter length when one is a prefix of the other), or -1.
func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// snapVersions lists the versions the snapshot tests run on: the two the
// benchmark's campaigns use in the -short tier, every measured one in the
// full tier.
func snapVersions() []harness.Version {
	if testing.Short() {
		return []harness.Version{harness.VCOOP, harness.VFME}
	}
	return harness.AllMeasuredVersions()
}

// TestRestoreThenCaptureIsFixedPoint snapshots a restored runner without
// running it forward: the second blob must be the first, byte for byte.
// A walk that writes a field it does not read back (or reads one into the
// wrong place) fails here at once. One run per version is paused every
// 1.7 s from the first second to past the drain verdict — a step that
// drifts against the 1 s, 2 s, 2.5 s and 5 s protocol periods, so the
// captures land inside heartbeat rounds, two-phase commits, probe rounds
// and the reset alike, besides the warm-fork point itself.
func TestRestoreThenCaptureIsFixedPoint(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun().withDefaults()
	sched := replaySchedule().Canonical()
	for _, v := range snapVersions() {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			r := newRunner(harness.NewEngine(0), v, o, sched, rc)
			var ats []time.Duration
			for at := time.Second; at < 200*time.Second; at += 1700 * time.Millisecond {
				ats = append(ats, at)
			}
			ats = append(ats, 70*time.Second)
			slices.Sort(ats)
			for _, at := range ats {
				r.advance(at)
				snap, err := snapshot.Take(r.c, r)
				if err != nil {
					t.Fatalf("at %v: %v", at, err)
				}
				back, err := restoreRunner(snap, sched, rc)
				if err != nil {
					t.Fatalf("at %v: %v", at, err)
				}
				again, err := snapshot.Take(back.c, back)
				if err != nil {
					t.Fatalf("at %v, of the restored world: %v", at, err)
				}
				if again.Hash() != snap.Hash() {
					t.Fatalf("at %v the re-captured snapshot differs from the one restored: first differing byte at offset %d (%d vs %d bytes)",
						at, firstDiff(snap.Bytes(), again.Bytes()), snap.Size(), again.Size())
				}
			}
		})
	}
}
