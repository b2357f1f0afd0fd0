package metrics

import (
	"testing"
	"time"
)

// The event log is on the episode hot path: emission must stay
// amortized-zero-alloc (one chunk allocation per chunkSize events is the
// only budget). These bounds are regression tests for the interned,
// lazily-formatted log — a fmt.Sprintf or per-event boxing creeping back
// in shows up as a hard failure here long before it shows up in a
// benchmark diff.

func TestEmitAllocsPerRun(t *testing.T) {
	l := &Log{}
	src, kind := InternSource("press/0"), KDetect
	for i := 0; i < 2*chunkSize; i++ {
		l.EmitID(time.Duration(i), src, kind, 0, "warm")
	}

	// A literal detail: the append alone. Amortized cost is the chunk
	// allocation (1/chunkSize per event).
	perEmit := testing.AllocsPerRun(1000, func() {
		l.EmitID(time.Second, src, kind, 0, "heartbeat loss")
	})
	if perEmit > 0.05 {
		t.Errorf("Log.EmitID allocates %.3f objects/event; want amortized <= 1/%d", perEmit, chunkSize)
	}

	// The lazy integer form must not box its operands.
	perInt := testing.AllocsPerRun(1000, func() {
		l.EmitInt(time.Second, src, kind, 0, "queue %d", 17)
	})
	if perInt > 0.05 {
		t.Errorf("Log.EmitInt allocates %.3f objects/event; want amortized <= 1/%d", perInt, chunkSize)
	}
}
