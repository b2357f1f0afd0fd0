package lint

import "testing"

// The analyzer gets a flagged fixture and clean ones. The fixtures double
// as the reference corpus for the diagnostics' wording: the `// want`
// comments pin the messages users see.

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
	if err != nil || len(all) != 1 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 1, nil", len(all), err)
	}
	one, err := ByName(" snapfields")
	if err != nil || len(one) != 1 || one[0].Name != "snapfields" {
		t.Fatalf("ByName(\" snapfields\") failed: %v, %v", one, err)
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
