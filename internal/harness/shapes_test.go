package harness

import (
	"testing"

	"press/internal/avail"
)

// TestPaperHeadlineShapes is the end-to-end acceptance test of the
// reproduction: it measures full campaigns for the key versions and
// asserts the paper's qualitative relationships (§6.4's summary). It is
// the slowest test in the repository (several simulated hours).
func TestPaperHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	t.Parallel()
	o := FastOptions(1)
	sched := FastSchedule()
	env := avail.DefaultEnv()

	model := func(v Version) avail.Result {
		t.Helper()
		camp, err := sharedEngine(v).Campaign(v, o, sched)
		if err != nil {
			t.Fatalf("%v campaign: %v", v, err)
		}
		r, err := camp.Model(env)
		if err != nil {
			t.Fatalf("%v model: %v", v, err)
		}
		t.Logf("%-6s measured unavailability %.4f%%", v, r.Unavailability)
		return r
	}

	indep := model(VINDEP)
	coop := model(VCOOP)
	fme := model(VFME)

	// §1: cooperation costs several times the availability (the paper
	// measured ~10x; our reproduction lands near 4x — see EXPERIMENTS.md).
	if ratio := coop.Unavailability / indep.Unavailability; ratio < 2.5 {
		t.Errorf("COOP/INDEP unavailability ratio %.1f, paper ~10x", ratio)
	}
	// §6.1/§6.4: the full software stack recovers most of it (paper: 94%).
	if red := 1 - fme.Unavailability/coop.Unavailability; red < 0.55 {
		t.Errorf("FME reduction %.0f%%, paper ~94%%", 100*red)
	}
	// FME should be in INDEP's availability class (paper: better than
	// independent servers).
	if fme.Unavailability > 3*indep.Unavailability {
		t.Errorf("FME %.4f%% much worse than INDEP %.4f%%", fme.Unavailability, indep.Unavailability)
	}

	// §6.3: scaled COOP grows, scaled FME stays flat.
	coopCamp, _ := sharedEngine(VCOOP).Campaign(VCOOP, o, sched)
	fmeCamp, _ := sharedEngine(VFME).Campaign(VFME, o, sched)
	coop8, err := avail.Availability(2*coopCamp.Offered, 2*coopCamp.Offered,
		avail.ScaleLoads(coopCamp.Loads, 2, 0.1), env)
	if err != nil {
		t.Fatal(err)
	}
	fme8, err := avail.Availability(2*fmeCamp.Offered, 2*fmeCamp.Offered,
		avail.ScaleLoads(fmeCamp.Loads, 2, 0.1), env)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scaled to 8 nodes: COOP %.4f%% (was %.4f%%), FME %.4f%% (was %.4f%%)",
		coop8.Unavailability, coop.Unavailability, fme8.Unavailability, fme.Unavailability)
	// Our COOP templates are share-loss dominated, so the growth per
	// doubling is mild (see EXPERIMENTS.md); it must still exceed FME's.
	coopGrowth := coop8.Unavailability / coop.Unavailability
	fmeGrowth := fme8.Unavailability / fme.Unavailability
	if coopGrowth <= 1.0 {
		t.Errorf("scaled COOP shrank: %.4f%% vs %.4f%%", coop8.Unavailability, coop.Unavailability)
	}
	if fmeGrowth > 1.8 {
		t.Errorf("scaled FME grew too much: %.4f%% vs %.4f%%", fme8.Unavailability, fme.Unavailability)
	}
}
