package snapshot

import (
	"errors"
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
