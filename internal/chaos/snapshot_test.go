package chaos

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/metrics"
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
// paused run finishes (and must match the never-paused baseline: taking
// a snapshot perturbs nothing), and a run restored from each snapshot
// must serialize byte-for-byte equal to the baseline — same counters, availability, verdicts, throughput
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
		{"warmup-end", 70 * time.Second}, // pre-arm: the warm-fork point
		// What the membership and FME daemons add (the other versions just
		// take three more captures). On FME at seed 1: node 0 detects node
		// 1's silence at 95 s and commits its exclusion at 97.5 s, when the
		// ack timeout fires for unreachable node 2; node 3 hangs at 110 s,
		// its FME daemon restarts the application at 120.49 s and the
		// process comes back 10 s later.
		{"mid-2PC", 96 * time.Second},
		{"mid-fault", 100 * time.Second}, // node 1 crashed AND node 2's link flapping
		{"mid-probe", 116 * time.Second}, // an HTTP probe of the hung server, one second into its two
		{"mid-restart", 125 * time.Second},
		{"mid-recovery", 186 * time.Second}, // past the drain verdict
	}
	sched = sched.Canonical()
	rc = rc.withDefaults()
	versions := snapVersions()
	want := make([][]byte, len(versions))
	snaps := make([][]*harness.Snap, len(versions))

	// One run per version, paused at every capture point in turn.
	t.Run("paused", func(t *testing.T) {
		for vi, v := range versions {
			t.Run(string(v), func(t *testing.T) {
				t.Parallel()
				r := newRunner(harness.NewEngine(0), v, o, sched, rc)
				snaps[vi] = make([]*harness.Snap, len(cases))
				for i, tc := range cases {
					var err error
					r.advance(tc.at)
					if snaps[vi][i], err = harness.Take(r.c, r.SnapExtra); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					if snaps[vi][i].At != tc.at {
						t.Fatalf("%s: snapshot captured at %v, want %v", tc.name, snaps[vi][i].At, tc.at)
					}
				}
				r.advance(-1)
				want[vi] = r.res.Serialize()
				if benchmarked(v) { // that pausing perturbs nothing is shown on two versions
					base, err := Run(harness.NewEngine(0), v, o, sched, rc)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := want[vi], base.Serialize(); !bytes.Equal(got, want) {
						diffAt(t, "paused run", want, got)
					}
				}
			})
		}
	})
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for vi, v := range versions {
				t.Run(string(v), func(t *testing.T) {
					t.Parallel()
					if want[vi] == nil {
						t.Skip("the paused run failed")
					}
					res, err := ResumeUncached(snaps[vi][i], sched, rc)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Serialize(); !bytes.Equal(got, want[vi]) {
						diffAt(t, "restored run", want[vi], got)
					}
				})
			}
		})
	}
}

// TestWarmForkMatchesCold pins the warm-fork contract: forking the warm
// snapshot and arming a schedule produces the exact Result the cold path
// produces for the same world and schedule.
func TestWarmForkMatchesCold(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()
	// The warm-fork point is TestSnapshotRestoreByteIdentical's first
	// capture on every version; the warm-up's own path needs two.
	for _, v := range []harness.Version{harness.VCOOP, harness.VFME} {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			snap, err := WarmSnapshot(harness.NewEngine(0), v, o, rc)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Run(harness.NewEngine(0), v, o, sched, rc)
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
		})
	}
}

// TestSnapshotForkProperty is the randomized pin: for a random pause
// time anywhere in the run, two forks of the same snapshot with the
// same schedule serialize identically, and a different schedule either
// diverges (pre-arm snapshots) or is rejected (armed snapshots).
func TestSnapshotForkProperty(t *testing.T) {
	// On the benchmark's two versions: a sample is four whole runs, and
	// what it checks at a random instant the other tests check on every
	// version at many chosen ones.
	for _, v := range []harness.Version{harness.VCOOP, harness.VFME} {
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

	base, err := Run(harness.NewEngine(0), v, o, sched, rc)
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
	cfg := &quick.Config{MaxCount: 4}
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
	snap, err := harness.Take(r.c, r.SnapExtra)
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

// benchmarked reports whether v is one of the two versions the benchmark's
// campaigns run, which get the densest treatment here.
func benchmarked(v harness.Version) bool { return v == harness.VCOOP || v == harness.VFME }

// diskSchedule is the acceptance schedule's complement: a disk that hangs
// (which under FME ends with the node taken offline, its blocked reads
// left in the array by a server that is gone), a frozen node, and an
// application crash on the node the join protocol answers from.
func diskSchedule() Schedule {
	return Schedule{
		{At: 8 * time.Second, Fault: faults.SCSITimeout, Component: 2, Duration: 35 * time.Second},
		{At: 20 * time.Second, Fault: faults.NodeFreeze, Component: 3, Duration: 25 * time.Second},
		{At: 50 * time.Second, Fault: faults.AppCrash, Component: 0, Duration: 20 * time.Second},
	}
}

// TestRestoreThenCaptureIsFixedPoint snapshots a restored runner without
// running it forward: the second blob must be the first, byte for byte.
// A walk that writes a field it does not read back (or reads one into the
// wrong place) fails here at once, and so does a save that meets state no
// walk describes. One run per version is paused every 1.7 s (COOP and
// FME; every 3.1 s on the others) from the first second to past the drain
// verdict — steps that drift against the 1 s, 2 s, 2.5 s and 5 s protocol
// periods, so the captures land inside heartbeat rounds, two-phase
// commits, probe rounds and the reset alike; FME is swept under the disk
// schedule as well. The same runs are captured at five chosen instants —
// the warm-fork point, mid compound fault, just after each repair, past
// the drain verdict — which are checked under their own names.
func TestRestoreThenCaptureIsFixedPoint(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun().withDefaults()
	fixed := func(t *testing.T, snap *harness.Snap, sched Schedule) {
		t.Helper()
		back, err := restoreRunner(snap, sched, rc)
		if err != nil {
			t.Fatalf("at %v: %v", snap.At, err)
		}
		again, err := harness.Take(back.c, back.SnapExtra)
		if err != nil {
			t.Fatalf("at %v, of the restored world: %v", snap.At, err)
		}
		if again.Hash() != snap.Hash() {
			t.Fatalf("at %v the re-captured snapshot differs from the one restored: first differing byte at offset %d (%d vs %d bytes)",
				snap.At, firstDiff(snap.Bytes(), again.Bytes()), snap.Size(), again.Size())
		}
	}
	chosen := []time.Duration{70 * time.Second, 100 * time.Second, 120 * time.Second, 141 * time.Second, 186 * time.Second}
	// sweep runs v under sched, checks every step on the way, and returns
	// the captures at the chosen instants unchecked.
	sweep := func(t *testing.T, v harness.Version, sched Schedule) []*harness.Snap {
		step := 3100 * time.Millisecond
		if benchmarked(v) {
			step = 1700 * time.Millisecond
		}
		ats := slices.Clone(chosen)
		for at := time.Second; at < 200*time.Second; at += step {
			ats = append(ats, at)
		}
		slices.Sort(ats)
		r := newRunner(harness.NewEngine(0), v, o, sched, rc)
		var at []*harness.Snap
		for _, when := range slices.Compact(ats) {
			r.advance(when)
			snap, err := harness.Take(r.c, r.SnapExtra)
			if err != nil {
				t.Fatalf("at %v: %v", when, err)
			}
			if slices.Contains(chosen, when) {
				at = append(at, snap)
			} else {
				fixed(t, snap, sched)
			}
		}
		return at
	}

	versions := snapVersions()
	replay := replaySchedule().Canonical()
	captured := make([][]*harness.Snap, len(versions))
	t.Run("sweep", func(t *testing.T) {
		for vi, v := range versions {
			t.Run(string(v), func(t *testing.T) {
				t.Parallel()
				captured[vi] = sweep(t, v, replay)
			})
		}
		t.Run("FME/disk", func(t *testing.T) {
			t.Parallel()
			disk := diskSchedule().Canonical()
			for _, snap := range sweep(t, harness.VFME, disk) {
				fixed(t, snap, disk)
			}
		})
	})
	for i, at := range chosen {
		t.Run(at.String(), func(t *testing.T) {
			for vi, v := range versions {
				if captured[vi] == nil {
					t.Errorf("%s: the sweep failed", v)
					continue
				}
				t.Run(string(v), func(t *testing.T) { fixed(t, captured[vi][i], replay) })
			}
		})
	}
}

// heldHead reads where a held series' shared head starts and how many
// buckets it has, by reflection: the head is the series' own business,
// and only this test asks whose array it is.
func heldHead(s *metrics.Series) (uintptr, int) {
	h := reflect.ValueOf(s).Elem().FieldByName("head")
	return h.Pointer(), h.Len()
}

// TestForkedOutcomesShareTheWarmHead: the outcomes of a forked campaign
// keep one warm-up head between them — the capture's throughput buckets
// before its instant, one backing array — and each still serializes byte
// for byte as its schedule replayed cold on the snapshot's options.
func TestForkedOutcomesShareTheWarmHead(t *testing.T) {
	rc := fastRun()
	cfg := CampaignConfig{
		Seeds: Seeds(8),
		Gen:   GenConfig{Horizon: time.Minute, MinActive: 15 * time.Second, MaxActive: 40 * time.Second, MaxFaults: 4},
		Run:   rc,
	}
	eng := harness.NewEngine(0)
	snap, err := WarmSnapshot(eng, harness.VCOOP, fastOpts(1), rc)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunCampaignFromSnapshot(eng, snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := heldHead(sum.Outcomes[0].Result.Series)
	for _, oc := range sum.Outcomes {
		if oc.Err != nil {
			t.Fatalf("seed %d: %v", oc.Seed, oc.Err)
		}
		p, n := heldHead(oc.Result.Series)
		if p == 0 || p != first || n != int(snap.At/time.Second) {
			t.Fatalf("seed %d: head of %d buckets at %#x, want the shared %d at %#x", oc.Seed, n, p, int(snap.At/time.Second), first)
		}
		cold, err := Run(eng, snap.Version, oc.Options, oc.Schedule, cfg.Run)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := cold.Serialize(), oc.Result.Serialize(); !bytes.Equal(got, want) {
			diffAt(t, "held fork", want, got)
		}
	}
}
