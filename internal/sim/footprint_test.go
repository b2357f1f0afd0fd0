package sim

import (
	"testing"
	"unsafe"
)

var sinkSim *Sim

// A kernel is built per world, and campaigns build thousands of worlds:
// an empty one is the Sim object alone. The wheel's buckets are lists
// threaded through the slot arena, so nothing is pre-sized.
func TestNewKernelIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Sim{}); size >= 4096 {
		t.Errorf("Sim is %d bytes, want under 4 KB", size)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkSim = New(1) }); allocs > 1 {
		t.Errorf("New makes %v allocations, want at most 1", allocs)
	}
}

// The slot arena keeps the pending set's high-water (65k records at
// N=256), so a record's size is pinned: the event pointer, the (at, seq)
// key a drain reads instead of the event, the heap index and home, and
// the two bucket-list links — 40 bytes.
func TestSlotRecSize(t *testing.T) {
	if got := unsafe.Sizeof(slotRec{}); got > 40 {
		t.Errorf("slotRec is %d bytes, want at most 40", got)
	}
}
