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
// copies none: 131,072 pending events cost their 515 chunks (8 MB) and
// the few slices that index them. An object per event, with an arena and
// free lists grown by append, costs about 131k objects and 51 MB.
func TestKernelStormAllocatesOnce(t *testing.T) {
	const n = 1 << 16
	fired := 0
	count := func(any) { fired++ }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(1)
	for i := 0; i < n; i++ {
		s.AtArg(0, count, nil)
	}
	for i := 0; i < n; i++ {
		s.AtArg(time.Duration(i)*time.Microsecond, count, nil) // over 65 ms
	}
	s.Run()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	objects := after.Mallocs - before.Mallocs
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("storm of %d events: %d objects, %.1f MB", 2*n, objects, mb)
	if fired != 2*n {
		t.Fatalf("fired %d events, want %d", fired, 2*n)
	}
	if objects > 1000 || mb > 20 {
		t.Errorf("storm allocated %d objects and %.1f MB, want at most 1,000 and 20 MB", objects, mb)
	}
}
