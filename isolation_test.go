package press

import (
	"bytes"
	"testing"
)

// TestHandleIsolation pins the one-engine contract: a handle's campaign
// runs entirely on the handle's own engine — saturation probe included —
// and Cluster.ResetCaches really resets everything the campaign cached.
func TestHandleIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns")
	}
	c := New(WithVersion(COOP), WithOptions(FastOptions(1)), WithWorkers(1))
	first, err := c.RunCampaign(FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	ep, camp, sat := c.eng.MemoStats()
	if ep != len(first.Eps) || camp != 1 || sat != 1 {
		t.Fatalf("handle engine holds %d episodes, %d campaigns, %d saturations; want %d, 1, 1 (one probe per capacity key)",
			ep, camp, sat, len(first.Eps))
	}

	c.ResetCaches()
	if ep, camp, sat := c.eng.MemoStats(); ep+camp+sat != 0 {
		t.Fatalf("ResetCaches left %d/%d/%d entries", ep, camp, sat)
	}
	second, err := c.RunCampaign(FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, sat := c.eng.MemoStats(); sat != 1 {
		t.Fatalf("second campaign after ResetCaches holds %d saturation entries, want 1 (re-probed)", sat)
	}
	// Re-simulated, not replayed from a surviving entry — and identical.
	if second.Eps[0].Series == first.Eps[0].Series {
		t.Fatal("second campaign shares the first's episode: ResetCaches did not reset")
	}
	if second.Offered != first.Offered || second.Eps[0].Tpl != first.Eps[0].Tpl {
		t.Fatalf("re-probed campaign differs: offered %v vs %v", second.Offered, first.Offered)
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
