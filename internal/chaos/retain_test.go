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
// repeats to within 16 B); the pin allows 1 % over, and it only goes down.
// Each outcome keeps its event log, cut to its records, and the
// throughput buckets after the capture instant; the ~610 warm-up buckets
// before it are one array the capture owns and every outcome shares
// (Cluster.Hold). It keeps nothing of the world it ran in. With a copy of
// the warm-up buckets per outcome and a restored log's doubled last chunk
// the same summary read 120,576 B; with a whole 256-record chunk of
// 56-byte records per restored log, 213,728 B. A fork that copied the
// head again, a log left uncut, or a result that held its cluster shows
// here.
const forkedOutcomesBytes = 50_464

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
