package lint

import "testing"

// Each analyzer gets a flagged fixture (its ".../sim" package) and at
// least one allowed/true-negative fixture. The fixtures double as the
// reference corpus for the diagnostics' wording: the `// want` comments
// pin the messages users see.

func TestWallclock(t *testing.T) {
	runFixture(t, Wallclock, cover("wallclock/sim"))
	runFixture(t, Wallclock, cover("wallclock/allowed"))
	runFixture(t, Wallclock, cover("cmd/tool"))
}

func TestGlobalrand(t *testing.T) {
	runFixture(t, Globalrand, cover("globalrand/sim"))
	runFixture(t, Globalrand, cover("globalrand/allowed"))
}

func TestMaporder(t *testing.T) {
	runFixture(t, Maporder, cover("maporder/sim"))
	runFixture(t, Maporder, cover("maporder/clean"))
}

func TestSimgoroutine(t *testing.T) {
	runFixture(t, Simgoroutine, cover("simgoroutine/sim"))
	runFixture(t, Simgoroutine, cover("simgoroutine/allowed"))
}

func TestSprintfemit(t *testing.T) {
	runFixture(t, Sprintfemit, cover("sprintfemit/sim"))
	runFixture(t, Sprintfemit, cover("sprintfemit/clean"))
}

func TestSnapfields(t *testing.T) {
	runFixture(t, Snapfields, cover("snapfields/flagged"))
	runFixture(t, Snapfields, cover("snapfields/skipfield"))
	runFixture(t, Snapfields, cover("snapfields/wiring"))
	// The regression fixture reproduces the PR 6 bug class: a copy of a
	// real snapshot type with a deliberately added unserialized field.
	runFixture(t, Snapfields, cover("snapfields/regression"))
}

func TestPoolsafety(t *testing.T) {
	runFixture(t, Poolsafety, cover("poolsafety/flagged"))
	runFixture(t, Poolsafety, cover("poolsafety/clean"))
	runFixture(t, Poolsafety, cover("poolsafety/allowed"))
}

func TestTimerretain(t *testing.T) {
	runFixture(t, Timerretain, cover("timerretain/flagged"))
	runFixture(t, Timerretain, cover("timerretain/allowed"))
	runFixture(t, Timerretain, cover("timerretain/simonly"))
	runFixture(t, Timerretain, cover("timerretain/wall"))
}

// TestAllowedPackageClassification pins the real repo policy: the
// packages that host wall-clock and live-network code on purpose are
// exempt; the simulation core is not.
func TestAllowedPackageClassification(t *testing.T) {
	cfg := DefaultConfig()
	for _, path := range []string{
		"press/internal/clock",
		"press/internal/livenet",
		"press/internal/lint",
		"press/cmd/availlint",
		"press/cmd/pressd",
		"press/examples/failover",
	} {
		if !cfg.Allowed(path) {
			t.Errorf("%s should be allowlisted", path)
		}
	}
	for _, path := range []string{
		"press",
		"press/internal/sim",
		"press/internal/harness",
		"press/internal/livenetx", // prefix of an allowlisted path must not leak
		"press/internal/clockwork",
	} {
		if cfg.Allowed(path) {
			t.Errorf("%s should NOT be allowlisted", path)
		}
	}
}

// TestByName covers analyzer selection, including the error path.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 8, nil", len(all), err)
	}
	two, err := ByName("maporder, wallclock")
	if err != nil || len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "wallclock" {
		t.Fatalf("ByName subset failed: %v, %v", two, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(\"nope\") should fail")
	}
}

// TestSelfClean runs the full suite over the repo itself: the tree must
// stay at zero unannotated findings (the same gate CI enforces via
// cmd/availlint). This is the dogfooding test — it exercises the real
// go list loader end to end.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags := Run(modulePackages(t), All(), DefaultConfig())
	for _, d := range diags {
		t.Errorf("unannotated finding: %s", d)
	}
}
