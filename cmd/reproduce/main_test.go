package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"press"
	"press/internal/chaos"
)

func TestParseFigs(t *testing.T) {
	if want, err := parseFigs("all"); err != nil || want != nil {
		t.Fatalf("all: want=%v err=%v, want nil set and no error", want, err)
	}
	want, err := parseFigs("2, t1")
	if err != nil || len(want) != 2 || !want["2"] || !want["t1"] {
		t.Fatalf(`"2, t1": want=%v err=%v`, want, err)
	}
	for _, bad := range []string{"3", "2,", "", "1a,fig7"} {
		_, err := parseFigs(bad)
		if err == nil {
			t.Fatalf("-fig %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "t1, 1a, 1b, 2, 4, 6, 7, 8, 9a, 9b, 10, t2") {
			t.Fatalf("-fig %q: error does not list the valid keys: %v", bad, err)
		}
	}
}

// TestBadFlagsExit2 holds every flag no run can honour to exit status 2,
// refused before the run starts: the CPU profile every row asks for, which
// the run would open before simulating anything, is never created.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range append(badArgs, []string{"-fast", "2"}) {
		prof := filepath.Join(t.TempDir(), "cpu.prof")
		code := func() (code int) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("reproduce %v panicked: %v", args, r)
					code = -1
				}
			}()
			return run(append(args, "-cpuprofile", prof))
		}()
		if code != 2 {
			t.Errorf("reproduce %v exited %d, want 2", args, code)
		}
		if _, err := os.Stat(prof); err == nil {
			t.Errorf("reproduce %v started the run before refusing it", args)
		}
	}
}

// badArgs are command lines no run can honour, one per refusal.
var badArgs = [][]string{
	{"-chaos", "-version", "BOGUS"},
	{"-chaos", "-version", "X-SW"}, // modeled, never measured
	{"-chaos", "-seeds", "-3"},
	{"-chaos", "-seeds", "0"},
	{"-fig", "99"},
	{"-nodes", "-1"},
	{"-nodes", "7"},
	{"-protocol", "nope"},
	{"-chaos", "-snapshot", "a.snap", "-from-snapshot", "b.snap"},
	{"-no-such-flag"},
}

// FuzzReproduceArgs feeds parseArgs any command line (arguments separated
// by NUL bytes): it never panics, and either returns an invocation some
// run can honour or exits 2 — or 0, when the line asks for -help. It
// fuzzes the parse alone, so no input starts a simulation or opens a file.
func FuzzReproduceArgs(f *testing.F) {
	for _, args := range badArgs {
		f.Add(strings.Join(args, "\x00"))
	}
	f.Add("-chaos\x00-seeds\x002\x00-fast\x00-gray")
	f.Add("-fig\x002,t1\x00-nodes\x0064\x00-protocol\x00scalable")
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Split(line, "\x00")
		inv, code := parseArgs(args, io.Discard)
		switch {
		case inv == nil && code == 0:
			if !slices.ContainsFunc(args, asksHelp) {
				t.Fatalf("%q: exit 0 without a run, and no -help asked", args)
			}
		case inv == nil:
			if code != 2 {
				t.Fatalf("%q: exit %d, want 2", args, code)
			}
		case code != 0:
			t.Fatalf("%q: an invocation and exit %d", args, code)
		case inv.seeds < 1, inv.nodes < 0,
			inv.nodes != 0 && inv.nodes != 4 && inv.suite != press.Scalable,
			inv.snapIn != "" && inv.snapOut != "",
			checkVersion(string(inv.version)) != nil:
			t.Fatalf("%q: parsed an invocation no run can honour: %+v", args, *inv)
		}
	})
}

// asksHelp reports whether arg is the flag package's -h or -help, in any
// of its spellings.
func asksHelp(arg string) bool {
	name, ok := strings.CutPrefix(arg, "-")
	if !ok {
		return false
	}
	name = strings.TrimPrefix(name, "-")
	name, _, _ = strings.Cut(name, "=")
	return name == "h" || name == "help"
}

// TestCheckVersionNamesTheMeasured: a refused -version says which
// versions a campaign can run.
func TestCheckVersionNamesTheMeasured(t *testing.T) {
	for _, v := range []string{"BOGUS", "X-SW"} {
		err := checkVersion(v)
		if err == nil || !strings.Contains(err.Error(), "INDEP, FE-X-INDEP, COOP") {
			t.Errorf("checkVersion(%q) = %v, want the measured versions named", v, err)
		}
	}
	for _, v := range press.AllMeasuredVersions() {
		if err := checkVersion(string(v)); err != nil {
			t.Errorf("checkVersion(%q) = %v", v, err)
		}
	}
}

// TestReproNamesTheCampaignsVersion: a campaign forked from a snapshot file
// runs the snapshot's version, not the -version flag's (FME by default), so
// the repro of a COOP campaign must replay on COOP.
func TestReproNamesTheCampaignsVersion(t *testing.T) {
	dir := t.TempDir()
	sum := press.ChaosCampaignSummary{Version: press.COOP, Outcomes: []chaos.SeedOutcome{
		{Seed: 1}, // held every invariant: no file
		{
			Seed:       3,
			Options:    press.FastOptions(1),
			Schedule:   press.ChaosSchedule{{At: time.Second, Fault: press.NodeCrash, Component: 1, Duration: time.Minute}},
			Violations: []press.ChaosViolation{{Invariant: "availability-floor", Detail: "test"}},
		},
	}}
	if code := writeRepros(sum, dir); code != 1 {
		t.Fatalf("exit code %d for a campaign with a violating seed, want 1", code)
	}
	files, err := filepath.Glob(dir + "/*.json")
	if err != nil || len(files) != 1 {
		t.Fatalf("repro files %v (err %v), want exactly one", files, err)
	}
	if !strings.Contains(filepath.Base(files[0]), "chaos-repro-COOP-seed3-") {
		t.Errorf("repro file %s does not name the campaign's version and seed", filepath.Base(files[0]))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := press.LoadChaosRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != press.COOP {
		t.Errorf("repro replays on %s, the campaign ran on %s", rep.Version, press.COOP)
	}
}

// TestStandingViolationReplays pins wrongs the simulator still has, one
// checked-in repro each:
//
//   - pressbench forkchaos seed 61 (COOP, FastOptions(1) at 100 req/s with
//     a 10-minute warm-up, shrunk 6 → 5 entries) violates "converges:
//     cluster never became whole: 4/4 nodes up, views [4 3 4 3] after 2
//     resets";
//   - `reproduce -chaos -seeds 8 -fast -version QMON` seed 1 (shrunk 10 → 2
//     entries: app-crash/4 at 2m28s+38s, node-freeze/1 at 2m49s+26s)
//     violates "converges: cluster never became whole: 5/5 nodes up,
//     views [4 5 4 5 5] after 2 resets".
//
// -chaos-replay exits 0 while a recorded violation reproduces. The change
// that heals one makes its replay exit 2 (stale), and flips its row to
// expect 2.
func TestStandingViolationReplays(t *testing.T) {
	for _, repro := range []string{
		"chaos-repro-COOP-seed61-4c994f70e2809376.json",
		"chaos-repro-QMON-seed1-392f282ff25e4f2d.json",
	} {
		t.Run(repro, func(t *testing.T) {
			f := filepath.Join("testdata", repro)
			if code := run([]string{"-chaos-replay", f}); code != 0 {
				t.Fatalf("-chaos-replay %s exited %d, want 0 (the recorded violation reproduces)", f, code)
			}
		})
	}
}
