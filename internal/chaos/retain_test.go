//go:build !race

// The race detector changes what the runtime allocates, so this pin
// holds only in a normal build.

package chaos

import (
	"runtime"
	"testing"
	"time"

	"press/internal/harness"
)

// forkedOutcomesBytes is what a forked campaign's summary of 8 seeds
// keeps live (TestForkedOutcomesRetain), read on linux/amd64 (the reading
// repeats to the byte); the pin allows 1 % over, and it only goes down.
// Measured from the heap before the campaign, the same summary read
// 125,040 B, and with a whole 256-record chunk of 56-byte records per
// restored log 213,728 B. Each
// outcome keeps its event log and its throughput series, nothing of the
// world it ran in: a fork whose restored log kept a whole chunk again, or
// a result that held its cluster, shows here.
const forkedOutcomesBytes = 120_592

// TestForkedOutcomesRetain pins the live heap a RunCampaignFromSnapshot
// summary of 8 seeds holds: seed 1's world warmed as pressbench's
// forkchaos warms it (COOP, 100 req/s, a 10-minute ramp) and chaos seeds
// 1–8 with its short fault horizons. It is read as the live heap with the
// summary held less the live heap once it is dropped, each after two
// collections. A reading from the heap before the campaign also counts
// what the runtime made while the campaign ran and keeps for the process:
// a worker thread started on the way (its m and g0, about 5 KB) pushed
// that reading past the pin in about one run in three.
func TestForkedOutcomesRetain(t *testing.T) {
	o := harness.FastOptions(1)
	o.Rate = 100
	o.Warmup = 10 * time.Minute
	cfg := CampaignConfig{
		Seeds: Seeds(8),
		Gen:   GenConfig{Horizon: time.Minute, MinActive: 15 * time.Second, MaxActive: 40 * time.Second, MaxFaults: 6},
		Run:   fastRun(),
	}
	eng := harness.NewEngine(1)
	snap, err := WarmSnapshot(eng, harness.VCOOP, o, cfg.Run)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // and what the first left in sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	outcomes, events := 0, 0
	held := func() uint64 { // the summary is unreachable once this returns
		sum, err := RunCampaignFromSnapshot(eng, snap, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = len(sum.Outcomes)
		for _, oc := range sum.Outcomes {
			if oc.Err != nil {
				t.Fatalf("seed %d: %v", oc.Seed, oc.Err)
			}
			events += oc.Result.Log.Len()
		}
		h := live()
		runtime.KeepAlive(sum)
		return h
	}()
	kept := held - live()
	runtime.KeepAlive(snap)
	runtime.KeepAlive(eng)
	t.Logf("%d forked outcomes keep %d B live (%d log events)", outcomes, kept, events)
	if limit := uint64(forkedOutcomesBytes + forkedOutcomesBytes/100); kept > limit {
		t.Errorf("8 forked outcomes keep %d B live, want at most %d (%d + 1 %%)", kept, limit, forkedOutcomesBytes)
	}
}
