package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

var sinkSim *Sim

// A kernel is built per world, and campaigns build thousands of worlds:
// an empty one is the Sim object alone. Records are minted with the
// first event, and the wheel's buckets are lists threaded through them,
// so nothing is pre-sized.
func TestNewKernelIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Sim{}); size >= 4096 {
		t.Errorf("Sim is %d bytes, want under 4 KB", size)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkSim = New(1) }); allocs > 1 {
		t.Errorf("New makes %v allocations, want at most 1", allocs)
	}
}

// Each pending event is one record, and the kernel mints records for
// the pending set's high-water (65k at N=256), so a record's size is
// pinned: the (at, seq) key, the callback and its argument, the heap
// index and home, the two list links and the generation — 64 bytes, one
// cache line.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(evRec{}); got > 64 {
		t.Errorf("evRec is %d bytes, want at most 64", got)
	}
}

// The t=0 mesh-dial storm at N=256 queues 65k events at once. Records
// live in chunks that never move, so a storm mints each record once and
// copies none: 131,072 pending events cost their 515 chunks (8 MB), the
// slice that indexes them and the cur heap the t=0 instant is armed into.
// An object per event, with an arena and free lists grown by append,
// costs about 131k objects and 51 MB. Draining allocates nothing: a
// drained bucket is ordered in its own list, and the cur heap the
// instant's 65,536 events grew is dropped once they have fired, so the
// storm's high-water is not kept.
//
// The drain is checked over stormDrains storms of one kernel, each a
// second after the last drained, so its instant lands in a wheel bucket.
// Mallocs counts the whole process, and the runtime's own goroutines (the
// background scavenger's timers) allocate a few objects now and then
// while a drain runs; a kernel that allocates when it drains does so in
// every storm, so most drains must allocate nothing.
func TestKernelStormAllocatesOnce(t *testing.T) {
	const n = 1 << 16
	fired := 0
	count := func(any) { fired++ }
	var before, queued, after runtime.MemStats
	s := New(1)
	var drains []uint64 // objects each storm's drain allocated
	for storm := range stormDrains {
		base := s.Now()
		if storm > 0 {
			base += time.Second
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			s.AtArg(base, count, nil)
		}
		for i := 0; i < n; i++ {
			s.AtArg(base+time.Duration(i)*time.Microsecond, count, nil) // over 65 ms
		}
		runtime.ReadMemStats(&queued)
		s.Run()
		runtime.ReadMemStats(&after)
		drains = append(drains, after.Mallocs-queued.Mallocs)
		if want := 2 * n * (storm + 1); fired != want {
			t.Fatalf("storm %d: fired %d events in all, want %d", storm, fired, want)
		}
		if c := cap(s.cur); c > frontKeep {
			t.Errorf("after storm %d cur keeps an array of %d entries, want at most %d", storm, c, frontKeep)
		}
		if storm > 0 {
			continue
		}
		objects := after.Mallocs - before.Mallocs
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("storm of %d events: %d objects, %.1f MB", 2*n, objects, mb)
		if objects > 600 || mb > 17 {
			t.Errorf("storm allocated %d objects and %.1f MB, want at most 600 and 17 MB", objects, mb)
		}
	}
	runtime.KeepAlive(s)
	clean := 0
	for _, objects := range drains {
		if objects == 0 {
			clean++
		}
	}
	if clean <= stormDrains/2 {
		t.Errorf("%d of %d drains allocated nothing, want most (objects per drain: %v)", clean, stormDrains, drains)
	}
}

// stormDrains is how many storms TestKernelStormAllocatesOnce drains.
const stormDrains = 7
