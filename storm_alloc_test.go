//go:build !race

// The race detector changes what the runtime allocates, so these pins
// hold only in a normal build.

package press_test

import (
	"runtime"
	"testing"
	"time"

	"press"
)

// stormAlloc builds an n-node Scalable COOP world at seed 1, 40 req/s
// per node, runs it to just before the t≈2 s formation storm and returns
// the bytes and objects the heap allocates while the storm passes
// (t = 1.99 s → 2.1 s): every server dials every other, each dial and
// each boot-storm datagram passes through simnet, the machine's mailbox
// and the server's per-peer lists.
func stormAlloc(n int) (bytes, objects uint64) {
	o := press.FastOptions(1)
	o.Nodes = n
	o.Protocol = press.Scalable
	o.Rate = 40 * float64(n)
	dep := press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
	dep.Gen.Start()
	dep.Sim.RunUntil(1990 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dep.Sim.RunUntil(2100 * time.Millisecond)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dep)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// stormPin is what the storm allocates, read on linux/amd64 (the readings
// repeat to about 100 bytes): the pin allows 1 % over, and it only goes
// down. A storm that grows a mailbox by doubling again, mints a second
// record per dial or boxes a Hello per send shows here as megabytes at
// N=256.
type stormPin struct {
	nodes          int
	bytes, objects uint64
}

func (p stormPin) check(t *testing.T) {
	t.Helper()
	b, obj := stormAlloc(p.nodes)
	t.Logf("N=%d formation storm allocates %d B in %d objects", p.nodes, b, obj)
	if limit := p.bytes + p.bytes/100; b > limit {
		t.Errorf("N=%d formation storm allocates %d B, want at most %d (%d + 1 %%)", p.nodes, b, limit, p.bytes)
	}
	if limit := p.objects + p.objects/100; obj > limit {
		t.Errorf("N=%d formation storm allocates %d objects, want at most %d (%d + 1 %%)", p.nodes, obj, limit, p.objects)
	}
}

// TestFormationStormAllocation pins what the N=256 formation storm
// allocates: 39,239,848 B in 206,682 objects. With 56-byte event-log
// records (a retired second argument) it was 39,946,728 B in 206,683.
// The kernel's drained front was a copied array, grown to 4.5 MB for the
// storm's bucket: 44,578,680 B in 206,690 objects. Before that,
// mailboxes that grew by doubling, two records per dial and a boxed
// Hello per send made 57,426,912 B in 408,655.
func TestFormationStormAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("the 256-node pin is the full tier's; TestFormationStormAllocation64 is the quick one")
	}
	stormPin{256, 39_239_848, 206_682}.check(t)
}

// TestFormationStormAllocation64 is the quick tier's pin of the same
// storm at N=64: 2,409,304 B in 13,692 objects (2,451,064 B with 56-byte
// log records, 2,733,784 B in 13,698 with the copied kernel front,
// 3,329,752 B in 26,987 before that).
func TestFormationStormAllocation64(t *testing.T) {
	stormPin{64, 2_409_304, 13_692}.check(t)
}
