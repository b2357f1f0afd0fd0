package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/sim"
	"press/internal/snapio"
	"press/internal/trace"
)

// warmBlob is a world of version v, warmed and captured.
func warmBlob(tb testing.TB, v harness.Version) []byte {
	return blobAfter(tb, v, nil)
}

// blobAfter is a world of version v, warmed, handed to then (when not
// nil) and captured.
func blobAfter(tb testing.TB, v harness.Version, then func(*harness.Cluster)) []byte {
	o := fastOpts(1)
	c := harness.NewEngine(0).Build(v, o)
	c.Gen.Start()
	c.Sim.RunUntil(o.Warmup)
	if then != nil {
		then(c)
	}
	snap, err := harness.Take(c, nil)
	if err != nil {
		tb.Fatalf("Take %s: %v", v, err)
	}
	return snap.Bytes()
}

// midFlap is the flap a mid-flap blob carries: node 2's link, down 5 s
// and up 3 s in turn.
var midFlap = faults.Flap{On: 5 * time.Second, Off: 3 * time.Second}

// flapBlob is a warm COOP world captured 12 s into a link flap, in its
// second on span with the next toggle pending, and the offset of the
// flap's spans in it: the middle of the injector's section.
func flapBlob(tb testing.TB) ([]byte, int) {
	blob := blobAfter(tb, harness.VCOOP, func(c *harness.Cluster) {
		if _, err := c.Injector.InjectWith(faults.LinkDown, 2, faults.InjectOpts{Flap: midFlap}); err != nil {
			tb.Fatal(err)
		}
		c.Sim.RunFor(12 * time.Second)
	})
	var spans snapio.Encoder
	spans.I64(int64(midFlap.On))
	spans.I64(int64(midFlap.Off))
	if n := bytes.Count(blob, spans.Bytes()); n != 1 {
		tb.Fatalf("the flap's spans appear %d times in the blob, want once", n)
	}
	return blob, bytes.Index(blob, spans.Bytes())
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

// TestRetiredPairSlotsAreRefused: format 7 keeps two slots of the
// front-end pair no build makes any more, the envelope's pair flag and
// the network core's address-alias count. A blob that fills either — a
// world with a standby front-end, or one whose service address was
// taken over — is refused with a typed error instead of restoring
// without what it claims.
func TestRetiredPairSlotsAreRefused(t *testing.T) {
	o := fastOpts(1)
	snap, err := harness.Take(harness.NewEngine(0).Build(harness.VCOOP, o), nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	if _, err := snap.Restore(nil); err != nil {
		t.Fatalf("Restore of the untouched blob: %v", err)
	}
	refused := func(what string, err error, want string) {
		t.Helper()
		var se *snapio.SnapError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, want) {
			t.Fatalf("%s: %v, want a *snapio.SnapError saying %q", what, err, want)
		}
	}

	// The envelope up to the pair flag: magic, format, version, then the
	// options before it.
	x := &snapio.Ctx{Enc: &snapio.Encoder{}}
	magic, format, v := "press-snap", 7, string(snap.Version)
	x.Str(&magic)
	snapio.Int(x, &format)
	x.Str(&v)
	snapio.Int(x, &snap.Opts.Seed)
	snapio.Int(x, &snap.Opts.Nodes)
	snapio.Int(x, &snap.Opts.CacheBytes)
	x.F64(&snap.Opts.Rate)
	snapio.Int(x, &snap.Opts.Warmup)
	snapio.Int(x, &snap.Opts.HeartbeatPeriod)
	snapio.Int(x, &snap.Opts.OperatorResponse)
	at := x.Enc.Len()
	if !bytes.HasPrefix(snap.Bytes(), x.Enc.Bytes()) || snap.Bytes()[at] != 0 {
		t.Fatalf("the envelope does not hold a false pair flag at byte %d", at)
	}
	blob := append([]byte(nil), snap.Bytes()...)
	blob[at] = 1
	_, err = harness.Load(blob)
	refused("Load with the pair flag set", err, "pair")

	// The network core opens with the switch state and the loss stream,
	// untouched in a world without gray faults; the alias count follows.
	x = &snapio.Ctx{Enc: &snapio.Encoder{}}
	up := true
	x.Bool(&up)
	x.Rand(sim.New(o.Seed).NewRand("simnet/loss"))
	if n := bytes.Count(snap.Bytes(), x.Enc.Bytes()); n != 1 {
		t.Fatalf("the network core's opening appears %d times in the blob, want once", n)
	}
	at = bytes.Index(snap.Bytes(), x.Enc.Bytes()) + x.Enc.Len()
	if snap.Bytes()[at] != 0 {
		t.Fatalf("alias count byte is %d, want 0", snap.Bytes()[at])
	}
	// One alias, the service address 89 held by node 90, as format 7
	// wrote it for a pair world.
	var alias snapio.Encoder
	for _, n := range []int{1, 89, 90} {
		alias.Int(n)
	}
	blob = slices.Concat(snap.Bytes()[:at], alias.Bytes(), snap.Bytes()[at+1:])
	aliased, err := harness.Load(blob)
	if err != nil {
		t.Fatalf("Load of the aliased blob: %v", err)
	}
	_, err = aliased.Restore(nil)
	refused("Restore with an address alias", err, "count 1 out of range")
}

// TestRetiredOptionSlotsAreRefused: format 7 keeps nine option slots no
// world fills any more, the trace skew (always trace.DefaultAlpha) and
// the eight of the load modulation (always zero: the offered load is
// stationary). A blob whose skew is another value, or whose modulation
// has any slot set, is refused with a typed error instead of restoring
// as a world it does not describe.
func TestRetiredOptionSlotsAreRefused(t *testing.T) {
	snap, err := harness.Take(harness.NewEngine(0).Build(harness.VCOOP, fastOpts(1)), nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	// envelope writes the envelope through the modulation slots: the
	// snapshot's own values, with the skew given and the modulation slot
	// set (its zero-based index; -1 sets none).
	envelope := func(alpha float64, set int) []byte {
		x := &snapio.Ctx{Enc: &snapio.Encoder{}}
		magic, format, v, pair := "press-snap", 7, string(snap.Version), false
		x.Str(&magic)
		snapio.Int(x, &format)
		x.Str(&v)
		o := snap.Opts
		snapio.Int(x, &o.Seed)
		snapio.Int(x, &o.Nodes)
		snapio.Int(x, &o.CacheBytes)
		x.F64(&o.Rate)
		snapio.Int(x, &o.Warmup)
		snapio.Int(x, &o.HeartbeatPeriod)
		snapio.Int(x, &o.OperatorResponse)
		x.Bool(&pair)
		snapio.Int(x, &o.Docs)
		x.F64(&alpha)
		snapio.Int(x, &o.Protocol)
		// Amplitude, period, phase, boost, onset, ramp, hold, decay.
		for i, float := range []bool{true, false, true, true, false, false, false, false} {
			f, n := 0.0, int64(0)
			if i == set {
				f, n = 0.5, 1
			}
			if float {
				x.F64(&f)
			} else {
				snapio.Int(x, &n)
			}
		}
		return x.Enc.Bytes()
	}
	head := envelope(trace.DefaultAlpha, -1)
	if !bytes.HasPrefix(snap.Bytes(), head) {
		t.Fatal("the envelope does not hold the default skew and a zero modulation")
	}
	rest := snap.Bytes()[len(head):]
	refused := func(what string, blob []byte, want string) {
		t.Helper()
		_, err := harness.Load(blob)
		var se *snapio.SnapError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, want) {
			t.Errorf("%s: %v, want a *snapio.SnapError saying %q", what, err, want)
		}
	}
	for _, alpha := range []float64{0, 1.2, math.NaN()} {
		refused(fmt.Sprintf("Load with skew %v", alpha), slices.Concat(envelope(alpha, -1), rest), "trace skew")
	}
	for slot := 0; slot < 8; slot++ {
		refused(fmt.Sprintf("Load with modulation slot %d set", slot), slices.Concat(envelope(trace.DefaultAlpha, slot), rest), "modulated")
	}
}

// FuzzLoadRestore feeds Load and Restore what a disk or a hostile sender
// could: the outcome is a world or a *snapio.SnapError — never a panic
// (recoverSnap re-raises anything that is not a Failf), a hang, or an
// allocation sized by a length the stream merely claims. The seed corpus,
// which plain `go test` runs, is a COOP and an FME warm blob and a COOP
// blob captured mid-flap, each whole, cut short at 24 lengths and with one
// bit flipped at 96 offsets, spread evenly so every section is hit. The
// mid-flap blob also has one bit flipped in each of the 48 bytes around
// its flap's spans, so corruption reaches every field of the injector's
// active fault, its pending toggle's slot included.
func FuzzLoadRestore(f *testing.F) {
	flap, at := flapBlob(f)
	for _, blob := range [][]byte{warmBlob(f, harness.VCOOP), warmBlob(f, harness.VFME), flap} {
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
	for i := range 48 {
		flipped := append([]byte(nil), flap...)
		flipped[at-16+i] ^= 1 << (i % 8)
		f.Add(flipped)
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
