//go:build !race

// The race detector changes what the runtime allocates, so this pin
// holds only in a normal build.

package harness

import (
	"runtime"
	"testing"
)

// campaignRetainBytes is what an engine keeps live for one memoized
// FastOptions COOP campaign at 100 req/s (TestCampaignRetain), read on
// linux/amd64; the pin allows 1 % over, and it only goes down. Each
// episode is a fork of the campaign's warm capture and keeps its
// throughput series and event log: the series shares the capture's
// warm-up buckets and the log ends at its last record (Cluster.Hold).
// Before episodes held their records that way the same campaign kept
// 58,432 B; a fork that copied the head again, or an episode that held
// its cluster, shows here.
const campaignRetainBytes = 34_976

// TestCampaignRetain pins the live heap an engine holds for a memoized
// Table-1 campaign: the live heap with the engine held less the live heap
// once it is dropped, each after two collections.
func TestCampaignRetain(t *testing.T) {
	o := FastOptions(1)
	o.Rate = 100
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // and what the first left in sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	episodes, events := 0, 0
	held := func() uint64 { // the engine is unreachable once this returns
		eng := NewEngine(1)
		res, err := eng.Campaign(VCOOP, o, FastSchedule())
		if err != nil {
			t.Fatal(err)
		}
		episodes = len(res.Eps)
		for _, ep := range res.Eps {
			events += ep.Log.Len()
		}
		h := live()
		runtime.KeepAlive(eng)
		return h
	}()
	kept := held - live()
	t.Logf("a memoized campaign of %d episodes keeps %d B live (%d log events)", episodes, kept, events)
	if limit := uint64(campaignRetainBytes + campaignRetainBytes/100); kept > limit {
		t.Errorf("a memoized campaign keeps %d B live, want at most %d (%d + 1 %%)", kept, limit, campaignRetainBytes)
	}
}
