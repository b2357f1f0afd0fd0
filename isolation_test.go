package press

import "testing"

// TestHandleIsolation pins the one-engine contract: a handle's campaign
// runs entirely on the handle's own engine — saturation probe included —
// so the process-shared engine sees nothing of it and Cluster.ResetCaches
// really resets everything the campaign cached.
func TestHandleIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns")
	}
	c := New(WithVersion(COOP), WithOptions(FastOptions(1)), WithWorkers(1))
	shared.ResetMemos()
	first, err := c.RunCampaign(FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if ep, camp, sat := shared.MemoStats(); ep+camp+sat+shared.SnapMemoStats() != 0 {
		t.Fatalf("handle campaign leaked into the shared engine: %d episodes, %d campaigns, %d saturations, %d keyed",
			ep, camp, sat, shared.SnapMemoStats())
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
