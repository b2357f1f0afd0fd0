package lint

import "testing"

// Each analyzer gets a flagged fixture and at least one clean one. The
// fixtures double as the reference corpus for the diagnostics' wording:
// the `// want` comments pin the messages users see.

func TestMaporder(t *testing.T) {
	runFixture(t, Maporder, cover("maporder/sim"))
	runFixture(t, Maporder, cover("maporder/clean"))
}

func TestSnapfields(t *testing.T) {
	runFixture(t, Snapfields, cover("snapfields/flagged"))
	runFixture(t, Snapfields, cover("snapfields/skipfield"))
	runFixture(t, Snapfields, cover("snapfields/wiring"))
	// The regression fixture reproduces the PR 6 bug class: a copy of a
	// real snapshot type with a deliberately added unserialized field.
	runFixture(t, Snapfields, cover("snapfields/regression"))
}

// TestByName covers analyzer selection, including the error path.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 2 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 2, nil", len(all), err)
	}
	two, err := ByName("snapfields, maporder")
	if err != nil || len(two) != 2 || two[0].Name != "snapfields" || two[1].Name != "maporder" {
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
	diags := Run(modulePackages(t), All())
	for _, d := range diags {
		t.Errorf("unannotated finding: %s", d)
	}
}
