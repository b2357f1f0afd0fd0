// Package snapshot checkpoints a fully warmed harness cluster into a
// compact, hash-addressed blob and rehydrates it into independent
// forks. A restored world continues byte-identically: every pending
// kernel event is re-armed at its exact (time, sequence) slot, every
// random stream resumes mid-sequence, and every in-flight network,
// disk and request operation picks up where the saved world stopped —
// so an episode restored at time T produces the same event log and
// metrics series as the uninterrupted run from T onward.
//
// Every world the harness builds is covered: the ten measured versions
// (front-end tier, membership, queue monitoring and FME daemons
// included), both protocol suites, the primary/standby front-end pair.
// The blob is self-describing: an envelope (format version, experiment
// version, every option the world was built from, resolved offered rate,
// capture time) followed by the harness world stream (see
// harness.SnapWorld for the section order). The harness forks a
// campaign's episodes from the bare world stream without coming through
// here; this package is for snapshots that outlive a call — written to
// disk, memoized by hash, handed to a chaos campaign.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"press/internal/harness"
	"press/internal/snapio"
)

const (
	magic = "press-snap"
	// format 2: Options carries the protocol suite, and the forward
	// message codec carries the sharded-mode relay origin.
	// format 3: the generator section carries its cancelled-timeout count.
	// format 4: Options carries the load modulation (a format-3 blob of a
	// diurnal or flash-crowd world restored as a stationary one).
	format = 4
)

// Extra lets a simulation driver (the chaos runner) piggyback its own
// state — pending fault-arm timers, phase machine — on the world
// stream. SnapExtra runs between the subsystem sections and the network
// tables, so a save can still claim pending kernel events.
type Extra interface {
	SnapExtra(x *snapio.Ctx)
}

// Snap is one captured world.
type Snap struct {
	Version harness.Version
	Opts    harness.Options // normalized (withDefaults applied by Build)
	Rate    float64         // resolved offered load the world runs at
	At      time.Duration   // sim time of the capture

	blob []byte //availlint:skipfield blob the stream itself, adopted whole by seal
	hash string //availlint:skipfield hash the stream's content address, computed by seal
}

// Bytes returns the serialized snapshot (envelope + world stream).
func (s *Snap) Bytes() []byte { return s.blob }

// Size returns the blob size in bytes.
func (s *Snap) Size() int { return len(s.blob) }

// Hash returns the snapshot's content address: the hex sha256 of the
// blob. Two captures hash equal iff their worlds are byte-identical.
func (s *Snap) Hash() string { return s.hash }

// seal adopts blob as the snapshot's bytes and content address.
func (s *Snap) seal(blob []byte) {
	sum := sha256.Sum256(blob)
	s.blob, s.hash = blob, hex.EncodeToString(sum[:])
}

// recoverSnap converts the snapio.Failf panic protocol into an ordinary
// error at the package boundary.
func recoverSnap(err *error) {
	if r := recover(); r != nil {
		se, ok := r.(*snapio.SnapError)
		if !ok {
			panic(r)
		}
		*err = se
	}
}

// envelope moves the self-describing header every blob starts with:
// magic, format, then the snapshot's exported fields.
func (s *Snap) envelope(x *snapio.Ctx) {
	m, f := magic, format
	if x.Str(&m); m != magic {
		snapio.Failf("not a press snapshot (bad magic)")
	}
	if snapio.Int(x, &f); f != format {
		snapio.Failf("unsupported snapshot format %d (have %d)", f, format)
	}
	x.Str((*string)(&s.Version))
	o := &s.Opts
	snapio.Int(x, &o.Seed)
	snapio.Int(x, &o.Nodes)
	snapio.Int(x, &o.CacheBytes)
	x.F64(&o.Rate)
	snapio.Int(x, &o.Warmup)
	snapio.Int(x, &o.HeartbeatPeriod)
	snapio.Int(x, &o.OperatorResponse)
	x.Bool(&o.RedundantFE)
	snapio.Int(x, &o.Docs)
	x.F64(&o.Alpha)
	snapio.Int(x, &o.Protocol)
	mod := &o.Mod
	x.F64(&mod.DiurnalAmp)
	snapio.Int(x, &mod.DiurnalPeriod)
	x.F64(&mod.DiurnalPhase)
	x.F64(&mod.FlashBoost)
	snapio.Int(x, &mod.FlashAt)
	snapio.Int(x, &mod.FlashRamp)
	snapio.Int(x, &mod.FlashHold)
	snapio.Int(x, &mod.FlashDecay)
	x.F64(&s.Rate)
	snapio.Int(x, &s.At)
}

// Take captures the cluster's complete state. extra, when non-nil,
// appends driver state at the world stream's extra slot.
func Take(c *harness.Cluster, extra Extra) (s *Snap, err error) {
	defer recoverSnap(&err)
	enc := &snapio.Encoder{}
	s = &Snap{Version: c.Version, Opts: c.Opts, Rate: c.Offered(), At: c.Sim.Now()}
	s.envelope(&snapio.Ctx{Enc: enc})
	var hook func(*snapio.Ctx)
	if extra != nil {
		hook = extra.SnapExtra
	}
	c.SnapWorld(enc, hook)
	s.seal(enc.Bytes())
	return s, nil
}

// Load wraps a serialized snapshot, validating and parsing only the
// envelope; the world stream is decoded by Restore.
func Load(data []byte) (s *Snap, err error) {
	defer recoverSnap(&err)
	x := &snapio.Ctx{Dec: snapio.NewDecoder(data)}
	s = new(Snap)
	s.envelope(x)
	if err := x.Dec.Err(); err != nil {
		return nil, err
	}
	s.seal(data)
	return s, nil
}

// Restore rehydrates one independent cluster from the snapshot. extra
// mirrors Take's hook: it runs at the same stream position with the
// half-restored cluster in hand. Each call builds a fresh world; the
// snapshot itself is never consumed and can be restored any number of
// times.
func (s *Snap) Restore(extra func(*harness.Cluster, *snapio.Ctx)) (c *harness.Cluster, err error) {
	defer recoverSnap(&err)
	dec := snapio.NewDecoder(s.blob)
	var h Snap
	h.envelope(&snapio.Ctx{Dec: dec})
	c = harness.RestoreWorld(h.Version, h.Opts, h.Rate, dec, extra)
	if c.Sim.Now() != h.At {
		snapio.Failf("restored clock %v does not match capture time %v", c.Sim.Now(), h.At)
	}
	return c, nil
}
