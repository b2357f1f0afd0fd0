package press

import (
	"bytes"
	"testing"
)

// TestHandleIsolation pins the one-engine contract: a handle's campaign
// runs entirely on the handle's own engine — saturation probe included —
// and a second handle shares none of it, re-probing and re-simulating to
// equal results.
func TestHandleIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns")
	}
	c := New(WithVersion(COOP), WithOptions(FastOptions(1)), WithWorkers(1))
	first, err := c.RunCampaign(FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if camp, sat := c.eng.MemoStats(); camp != 1 || sat != 1 {
		t.Fatalf("handle engine holds %d campaigns, %d saturations; want 1, 1 (one probe per capacity key)", camp, sat)
	}

	d := New(WithVersion(COOP), WithOptions(FastOptions(1)), WithWorkers(1))
	if camp, sat := d.eng.MemoStats(); camp+sat != 0 {
		t.Fatalf("a new handle starts with %d/%d entries", camp, sat)
	}
	second, err := d.RunCampaign(FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if camp, sat := d.eng.MemoStats(); camp != 1 || sat != 1 {
		t.Fatalf("second handle holds %d campaigns, %d saturations; want 1, 1 (re-probed)", camp, sat)
	}
	// Re-simulated, not shared with the first handle — and identical.
	if second.Eps[0].Series == first.Eps[0].Series {
		t.Fatal("second handle shares the first's episode")
	}
	if second.Offered != first.Offered {
		t.Fatalf("re-probed campaign differs: offered %v vs %v", second.Offered, first.Offered)
	}
	for i, ep := range first.Eps {
		if second.Eps[i].Tpl != ep.Tpl {
			t.Fatalf("%v: re-simulated template differs", ep.Fault)
		}
	}
}

// TestPackageCallsCacheNothing pins that a package-level entry point owns
// the engine it runs on for one call only: the same call twice simulates
// twice, to equal results held in distinct values.
func TestPackageCallsCacheNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("two warm-ups and two chaos campaigns")
	}
	o := FastOptions(1)
	rc := ChaosRunConfig{}
	a, err := WarmChaosSnapshot(COOP, o, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WarmChaosSnapshot(COOP, o, rc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("two identical warm-ups captured %s and %s", a.Hash(), b.Hash())
	}
	if a == b {
		t.Fatal("the second WarmChaosSnapshot returned the first's snapshot: a package-level call cached it")
	}

	cfg := ChaosCampaignConfig{Seeds: ChaosSeeds(2)}
	first := RunChaosCampaign(COOP, o, cfg)
	second := RunChaosCampaign(COOP, o, cfg)
	for i, x := range first.Outcomes {
		y := second.Outcomes[i]
		if x.Err != nil || y.Err != nil {
			t.Fatalf("seed %d: %v / %v", x.Seed, x.Err, y.Err)
		}
		if !bytes.Equal(x.Result.Serialize(), y.Result.Serialize()) {
			t.Fatalf("seed %d: two identical campaigns serialized differently", x.Seed)
		}
		if x.Result.Log == y.Result.Log {
			t.Fatalf("seed %d: the second campaign returned the first's event log: a package-level call cached the run", x.Seed)
		}
	}
}
