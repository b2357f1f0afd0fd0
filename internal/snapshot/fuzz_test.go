package snapshot

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"press/internal/harness"
	"press/internal/snapio"
)

// warmBlob is a world of version v, warmed and captured.
func warmBlob(tb testing.TB, v harness.Version) []byte {
	o := fastOpts(1)
	c := harness.NewEngine(0).Build(v, o)
	c.Gen.Start()
	c.Sim.RunUntil(o.Warmup)
	snap, err := harness.Take(c, nil)
	if err != nil {
		tb.Fatalf("Take %s: %v", v, err)
	}
	return snap.Bytes()
}

// A blob of an earlier format — 5, which named process timers by serial,
// or 6, which carried a timer per request deadline and per charge end —
// is refused at Load with a typed error rather than misread.
func TestFormat5BlobIsRefused(t *testing.T) {
	c := harness.NewEngine(0).Build(harness.VCOOP, fastOpts(1))
	snap, err := harness.Take(c, nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	// The envelope is the magic, length-prefixed, then the format as a
	// zigzag varint: 7 is 14, 6 is 12, 5 is 10.
	at := 1 + len("press-snap")
	if b := snap.Bytes()[at]; b != 14 {
		t.Fatalf("format byte is %d, want 14 (format 7)", b)
	}
	for _, old := range []int{5, 6} {
		blob := append([]byte(nil), snap.Bytes()...)
		blob[at] = byte(2 * old)
		_, err = harness.Load(blob)
		var se *snapio.SnapError
		if want := fmt.Sprintf("unsupported snapshot format %d", old); !errors.As(err, &se) || !strings.Contains(se.Msg, want) {
			t.Fatalf("Load of a format-%d blob: %v, want a *snapio.SnapError refusing format %d", old, err, old)
		}
	}
}

// FuzzLoadRestore feeds Load and Restore what a disk or a hostile sender
// could: the outcome is a world or a *snapio.SnapError — never a panic
// (recoverSnap re-raises anything that is not a Failf), a hang, or an
// allocation sized by a length the stream merely claims. The seed corpus,
// which plain `go test` runs, is a COOP and an FME warm blob, each whole,
// cut short at 24 lengths and with one bit flipped at 96 offsets, spread
// evenly so every section is hit.
func FuzzLoadRestore(f *testing.F) {
	for _, v := range []harness.Version{harness.VCOOP, harness.VFME} {
		blob := warmBlob(f, v)
		f.Add(blob)
		for i := range 24 {
			f.Add(blob[:len(blob)*i/24])
		}
		for i := range 96 {
			flipped := append([]byte(nil), blob...)
			flipped[(len(blob)-1)*i/95] ^= 1 << (i % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := harness.Load(data)
		if err == nil {
			_, err = s.Restore(nil)
		}
		var se *snapio.SnapError
		if err != nil && !errors.As(err, &se) {
			t.Fatalf("refused with a %T, not a *snapio.SnapError: %v", err, err)
		}
	})
}
