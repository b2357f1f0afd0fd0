package chaos

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
)

// fastOpts is the test profile: fixed offered load (saturation probing
// is not what chaos tests) and a short warmup.
func fastOpts(seed int64) harness.Options {
	o := harness.FastOptions(seed)
	o.Rate = 100
	o.Warmup = 60 * time.Second
	return o
}

// fastRun keeps run phases short enough for the -short CI tier.
func fastRun() RunConfig {
	return RunConfig{
		Settle:       10 * time.Second,
		DrainGrace:   45 * time.Second,
		ResetLimit:   60 * time.Second,
		FinalObserve: 15 * time.Second,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	o := fastOpts(1)
	a := Generate(7, harness.VMQ, o, GenConfig{})
	b := Generate(7, harness.VMQ, o, GenConfig{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Generate(8, harness.VMQ, o, GenConfig{})
	if a.Hash() == c.Hash() {
		t.Fatalf("seeds 7 and 8 drew identical schedules (hash %016x)", a.Hash())
	}
}

func TestGenerateRespectsCaps(t *testing.T) {
	o := fastOpts(1)
	cfg := GenConfig{}.withDefaults()
	for seed := int64(1); seed <= 12; seed++ {
		s := Generate(seed, harness.VFME, o, cfg)
		if len(s) < minFaults || len(s) > cfg.MaxFaults {
			t.Fatalf("seed %d: %d entries outside [%d, %d]:\n%s", seed, len(s), minFaults, cfg.MaxFaults, s)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid schedule: %v\n%s", seed, err, s)
		}
		for _, e := range s {
			if e.Flapping() && !faults.FlapCapable(e.Fault) {
				t.Fatalf("seed %d: %v drawn as flapping but is not flap-capable", seed, e.Fault)
			}
			if e.Duration < cfg.MinActive || e.Duration > cfg.MaxActive {
				t.Fatalf("seed %d: duration %s outside [%s, %s]", seed, e.Duration, cfg.MinActive, cfg.MaxActive)
			}
			if e.At < 0 || e.At >= cfg.Horizon {
				t.Fatalf("seed %d: entry starts at %s, outside the %s horizon", seed, e.At, cfg.Horizon)
			}
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	ok := Schedule{
		{At: 0, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second},
		{At: 10 * time.Second, Fault: faults.LinkDown, Component: 1, Duration: 30 * time.Second},
		{At: 40 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 10 * time.Second},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := map[string]Schedule{
		"same-slot overlap": {
			{At: 0, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second},
			{At: 20 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second},
		},
		"zero duration":   {{At: 0, Fault: faults.NodeCrash, Component: 1}},
		"negative offset": {{At: -time.Second, Fault: faults.NodeCrash, Component: 1, Duration: time.Second}},
		"one-sided flap":  {{At: 0, Fault: faults.LinkDown, Component: 1, Duration: 30 * time.Second, FlapOn: time.Second}},
		"unknown fault":   {{At: 0, Fault: faults.Type(99), Component: 1, Duration: time.Second}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %s", name, s)
		}
	}
}

func TestScheduleHashDistinguishes(t *testing.T) {
	base := Schedule{
		{At: 10 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second},
		{At: 20 * time.Second, Fault: faults.LinkDown, Component: 2, Duration: 30 * time.Second},
	}
	// Permutation-invariant...
	swapped := Schedule{base[1], base[0]}
	if base.Hash() != swapped.Hash() {
		t.Fatal("hash depends on entry order")
	}
	// ...but sensitive to every field.
	mutants := []func(Schedule){
		func(s Schedule) { s[0].At += time.Second },
		func(s Schedule) { s[0].Fault = faults.NodeFreeze },
		func(s Schedule) { s[0].Component = 2 },
		func(s Schedule) { s[0].Duration += time.Second },
		func(s Schedule) { s[1].FlapOn, s[1].FlapOff = 5*time.Second, 3*time.Second },
	}
	for i, mut := range mutants {
		m := make(Schedule, len(base))
		copy(m, base)
		mut(m)
		if m.Hash() == base.Hash() {
			t.Errorf("mutant %d hashes like the base schedule", i)
		}
	}
	if (Schedule{}).Hash() == base.Hash() {
		t.Error("empty schedule hashes like the base schedule")
	}
}

func TestScheduleOverlaps(t *testing.T) {
	s := Schedule{
		{At: 0, Fault: faults.NodeCrash, Component: 1, Duration: 30 * time.Second},
		{At: 10 * time.Second, Fault: faults.LinkDown, Component: 2, Duration: 30 * time.Second},
		{At: 100 * time.Second, Fault: faults.AppCrash, Component: 3, Duration: 10 * time.Second},
	}
	if got := s.Overlaps(); got != 1 {
		t.Fatalf("Overlaps = %d, want 1", got)
	}
}

// replaySchedule is the acceptance-test schedule: three faults, two of
// them overlapping (node 1 crashed while node 2's link flaps), one
// intermittent.
func replaySchedule() Schedule {
	return Schedule{
		{At: 10 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 40 * time.Second},
		{At: 25 * time.Second, Fault: faults.LinkDown, Component: 2, Duration: 45 * time.Second,
			FlapOn: 5 * time.Second, FlapOff: 3 * time.Second},
		{At: 40 * time.Second, Fault: faults.AppHang, Component: 3, Duration: 30 * time.Second},
	}
}

// TestChaosReplayByteIdentical is the acceptance criterion: a chaos run
// with overlapping faults, simulated twice from scratch, must serialize
// to byte-identical output — counters, series, event log, everything.
func TestChaosReplayByteIdentical(t *testing.T) {
	sched := replaySchedule()
	if sched.Overlaps() < 1 {
		t.Fatal("acceptance schedule must contain overlapping faults")
	}
	o := fastOpts(1)
	runOnce := func() []byte {
		r, err := Run(harness.NewEngine(0), harness.VMQ, o, sched, fastRun())
		if err != nil {
			t.Fatal(err)
		}
		return r.Serialize()
	}
	first := runOnce()
	second := runOnce()
	if !bytes.Equal(first, second) {
		a, b := string(first), string(second)
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 120
				if lo < 0 {
					lo = 0
				}
				hiA, hiB := i+120, i+120
				if hiA > len(a) {
					hiA = len(a)
				}
				if hiB > len(b) {
					hiB = len(b)
				}
				t.Fatalf("replay diverges at byte %d:\nfirst:  ...%s\nsecond: ...%s", i, a[lo:hiA], b[lo:hiB])
			}
		}
		t.Fatalf("replay output lengths differ: %d vs %d bytes", len(first), len(second))
	}
	if len(first) == 0 {
		t.Fatal("serialized result is empty")
	}
}

// TestInvariantsHoldOnFMESchedule: the default catalog passes on an
// FME-bearing version under a compound schedule that includes a solo
// hang long enough to demand an FME conversion.
func TestInvariantsHoldOnFMESchedule(t *testing.T) {
	sched := Schedule{
		{At: 5 * time.Second, Fault: faults.AppCrash, Component: 1, Duration: 25 * time.Second},
		{At: 15 * time.Second, Fault: faults.LinkDown, Component: 2, Duration: 25 * time.Second},
		// Solo hang, past the FME bound (4*5s + 5s): must be converted.
		{At: 60 * time.Second, Fault: faults.AppHang, Component: 3, Duration: 40 * time.Second},
	}
	r, err := Run(harness.NewEngine(0), harness.VFME, fastOpts(1), sched, fastRun())
	if err != nil {
		t.Fatal(err)
	}
	if viols := Check(&r, DefaultInvariants()); len(viols) != 0 {
		t.Fatalf("invariant violations on a recoverable schedule:\n%v\nlog:\n%s", viols, r.Log.Dump())
	}
	if r.FMEActions == 0 {
		t.Fatal("no FME action recorded for the solo hang")
	}
}

// TestRunSkipsInapplicable: scheduling a front-end fault on a version
// without a front-end records a skip instead of failing the run, and an
// entry whose target an earlier fault already killed is skipped too.
func TestRunSkipsInapplicable(t *testing.T) {
	sched := Schedule{
		{At: 5 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 40 * time.Second},
		// Node 1 is down at t=10: its link cannot also fail.
		{At: 10 * time.Second, Fault: faults.LinkDown, Component: 1, Duration: 10 * time.Second},
		{At: 15 * time.Second, Fault: faults.FrontendFailure, Component: 0, Duration: 10 * time.Second},
	}
	r, err := Run(harness.NewEngine(0), harness.VCOOP, fastOpts(1), sched, fastRun())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Skipped) != 2 {
		t.Fatalf("Skipped = %v, want the link-down and frontend entries", r.Skipped)
	}
	if r.ActiveFaults != 0 {
		t.Fatalf("ActiveFaults = %d after run", r.ActiveFaults)
	}
}

// TestMemoHygiene is the cache-poisoning regression: a chaos run caches
// nothing on the engine it runs on, so it can never create or disturb a
// harness campaign or saturation memo entry.
func TestMemoHygiene(t *testing.T) {
	sched := Schedule{
		{At: 5 * time.Second, Fault: faults.AppCrash, Component: 1, Duration: 20 * time.Second},
	}
	eng := harness.NewEngine(0)
	if _, err := Run(eng, harness.VMQ, fastOpts(3), sched, fastRun()); err != nil {
		t.Fatal(err)
	}
	if camp, sat := eng.MemoStats(); camp+sat != 0 {
		t.Fatalf("chaos run touched harness memos: %d campaigns, %d saturations", camp, sat)
	}
}

func TestReproRoundTrip(t *testing.T) {
	sched := replaySchedule()
	rep := NewRepro(harness.VMQ, fastOpts(1), fastRun(), sched, Violation{Invariant: "availability-floor", Detail: "x"})
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(data)
	if err != nil {
		t.Fatalf("LoadRepro: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(back.Schedule, sched.Canonical()) {
		t.Fatalf("schedule did not round-trip:\n%s\nvs\n%s", back.Schedule, sched.Canonical())
	}
	if back.Version != rep.Version || back.Violated != rep.Violated || back.Hash != rep.Hash {
		t.Fatalf("metadata did not round-trip: %+v vs %+v", back, rep)
	}
	if back.Options.Rate != rep.Options.Rate || back.Options.Warmup != rep.Options.Warmup {
		t.Fatalf("options did not round-trip: %+v", back.Options)
	}
	// A tampered schedule no longer matches the recorded hash.
	tampered := bytes.Replace(data, []byte(`"component": 3`), []byte(`"component": 2`), 1)
	if !bytes.Equal(tampered, data) {
		if _, err := LoadRepro(tampered); err == nil {
			t.Fatal("LoadRepro accepted a repro whose schedule no longer matches its hash")
		}
	}
}

// TestFastCampaignsComplete runs the three campaigns README "Chaos
// campaigns" and CI chaos-smoke drive through cmd/reproduce (8 fixed seeds,
// fast profile, load resolved by the saturation probe): every seed must run
// to a verdict, and the standing catalog must hold. A saturation probe sheds
// thousands of connections at accept, which is what once left dead conns
// tracked by their dialers and crashed the next hang or stall.
func TestFastCampaignsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("three 8-seed campaigns")
	}
	gray := GenConfig{Gray: true}
	for _, tc := range []struct {
		name string
		v    harness.Version
		gen  GenConfig
	}{
		{"FME", harness.VFME, GenConfig{}},
		{"MQ", harness.VMQ, GenConfig{}},
		{"FME-gray", harness.VFME, gray},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sum := RunCampaign(harness.NewEngine(0), tc.v, harness.FastOptions(1), CampaignConfig{Seeds: Seeds(8), Gen: tc.gen})
			for _, oc := range sum.Outcomes {
				if oc.Err != nil {
					t.Errorf("seed %d: %v", oc.Seed, oc.Err)
				}
			}
			if n := sum.Violations(); n != 0 {
				t.Errorf("%d violating seeds:\n%s", n, sum)
			}
		})
	}
}
