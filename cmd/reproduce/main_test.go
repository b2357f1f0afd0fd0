package main

import (
	"os"
	"path/filepath"
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
