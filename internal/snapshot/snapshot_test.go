package snapshot

import (
	"fmt"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/trace"
)

// fastOpts keeps the world small and pins the rate so Build never runs
// the saturation probe.
func fastOpts(seed int64) harness.Options {
	o := harness.FastOptions(seed)
	o.Rate = 100
	return o
}

// dump renders everything observable about a cluster's dynamic state.
func dump(c *harness.Cluster) string {
	now, seq, fired, maxQ := c.Sim.Counters()
	s := fmt.Sprintf("now=%v seq=%d fired=%d maxQ=%d\n", now, seq, fired, maxQ)
	s += fmt.Sprintf("offered=%d succeeded=%d failed=%d connfail=%d compfail=%d\n",
		c.Rec.Offered, c.Rec.Succeeded, c.Rec.Failed, c.Rec.ConnectFailures, c.Rec.CompleteFailures)
	s += "throughput:" + c.Rec.Throughput.CSV() + "\n"
	s += "offers:" + c.Rec.Offers.CSV() + "\n"
	s += "failures:" + c.Rec.Failures.CSV() + "\n"
	s += c.Log.Dump()
	return s
}

// TestPlainWorldRoundTrip warms a world of each shape the walks have to
// carry — plain: nothing drives it but its load, and no driver's state
// rides on the stream — snapshots it, and checks a restored world
// continues byte-identically to the uninterrupted original. The diurnal case holds the envelope to every
// option the world was built from: until format 4 it left the modulation
// out, and the restored world offered a stationary load without an error.
// The pair case captures two seconds into a front-end crash, the standby
// two missed heartbeats from taking the address over; the scalable cases
// carry gossip membership, the sharded directory and a two-machine
// front-end tier.
func TestPlainWorldRoundTrip(t *testing.T) {
	with := func(edit func(*harness.Options)) harness.Options {
		o := fastOpts(1)
		edit(&o)
		return o
	}
	crashFrontend := func(t *testing.T, c *harness.Cluster) {
		if _, err := c.Injector.Inject(faults.FrontendFailure, 0); err != nil {
			t.Fatal(err)
		}
		c.Sim.RunFor(2 * time.Second)
	}
	for _, tc := range []struct {
		name   string
		v      harness.Version
		o      harness.Options
		before func(*testing.T, *harness.Cluster) // after the warm-up, before the capture
	}{
		{"INDEP", harness.VINDEP, fastOpts(1), nil},
		{"COOP", harness.VCOOP, fastOpts(1), nil},
		{"COOP/diurnal", harness.VCOOP, with(func(o *harness.Options) {
			o.Mod = trace.Modulation{DiurnalAmp: 0.5, DiurnalPeriod: 2 * time.Minute}
		}), nil},
		{"FME", harness.VFME, fastOpts(1), nil},
		{"C-MON/pair/mid-takeover", harness.VCMON, with(func(o *harness.Options) { o.RedundantFE = true }), crashFrontend},
		{"COOP/scalable", harness.VCOOP, with(func(o *harness.Options) { o.Protocol, o.Nodes = harness.Scalable, 8 }), nil},
		{"FME/scalable/two-frontends", harness.VFME, with(func(o *harness.Options) {
			o.Protocol, o.Nodes, o.Rate = harness.Scalable, 34, 400
		}), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			v, o := tc.v, tc.o
			c := harness.NewEngine(0).Build(v, o)
			c.Gen.Start()
			c.Sim.RunUntil(o.Warmup)
			if tc.before != nil {
				tc.before(t, c)
			}

			snap, err := harness.Take(c, nil)
			if err != nil {
				t.Fatalf("Take: %v", err)
			}

			// A second capture of the same moment must be byte-identical
			// (taking a snapshot does not perturb the world).
			again, err := harness.Take(c, nil)
			if err != nil {
				t.Fatalf("second Take: %v", err)
			}
			if snap.Hash() != again.Hash() {
				t.Fatalf("re-capture changed hash: %s vs %s", snap.Hash(), again.Hash())
			}

			horizon := o.Warmup + time.Minute
			c.Sim.RunUntil(horizon)
			want := dump(c)

			r, err := snap.Restore(nil)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if r.Sim.Now() != snap.At {
				t.Fatalf("restored at %v, snapshot taken at %v", r.Sim.Now(), snap.At)
			}
			r.Sim.RunUntil(horizon)
			got := dump(r)
			if got != want {
				t.Fatalf("restored world diverged from original\n--- original ---\n%s\n--- restored ---\n%s",
					tail(want, 2000), tail(got, 2000))
			}
		})
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}

// TestLoadRoundTrip serializes a snapshot through Load and checks the
// envelope and content address survive.
func TestLoadRoundTrip(t *testing.T) {
	o := fastOpts(2)
	c := harness.NewEngine(0).Build(harness.VCOOP, o)
	c.Gen.Start()
	c.Sim.RunUntil(30 * time.Second)
	snap, err := harness.Take(c, nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	re, err := harness.Load(snap.Bytes())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if re.Hash() != snap.Hash() {
		t.Fatalf("hash changed across Load: %s vs %s", re.Hash(), snap.Hash())
	}
	if re.Version != snap.Version || re.Rate != snap.Rate || re.At != snap.At || re.Opts != snap.Opts {
		t.Fatalf("envelope changed across Load: %+v vs %+v", re, snap)
	}
	if _, err := harness.Load(snap.Bytes()[:8]); err == nil {
		t.Fatalf("Load accepted a truncated blob")
	}
}

// TestForkIndependence restores a warm snapshot twice and checks the
// forks are fully independent worlds that evolve identically from
// identical state.
func TestForkIndependence(t *testing.T) {
	o := fastOpts(3)
	c := harness.NewEngine(0).Build(harness.VCOOP, o)
	c.Gen.Start()
	c.Sim.RunUntil(time.Minute)
	snap, err := harness.Take(c, nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	dumps := make([]string, 2)
	for i := range dumps {
		fc, err := snap.Restore(nil)
		if err != nil {
			t.Fatalf("Restore %d: %v", i, err)
		}
		fc.Sim.RunUntil(2 * time.Minute)
		dumps[i] = dump(fc)
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("forks of the same snapshot diverged")
	}
}

// TestRestoreThenCaptureIsFixedPoint: a snapshot of a restored world is
// the snapshot it was restored from. Nothing runs between the two, so a
// field a walk writes but does not read back shows as a differing byte
// here without a continuation having to stumble on it.
func TestRestoreThenCaptureIsFixedPoint(t *testing.T) {
	for _, v := range harness.AllMeasuredVersions() {
		for _, at := range []time.Duration{30 * time.Second, 90 * time.Second} {
			t.Run(fmt.Sprintf("%s/%v", v, at), func(t *testing.T) {
				t.Parallel()
				c := harness.NewEngine(0).Build(v, fastOpts(4))
				c.Gen.Start()
				c.Sim.RunUntil(at)
				snap, err := harness.Take(c, nil)
				if err != nil {
					t.Fatalf("Take: %v", err)
				}
				r, err := snap.Restore(nil)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				again, err := harness.Take(r, nil)
				if err != nil {
					t.Fatalf("Take of the restored world: %v", err)
				}
				if again.Hash() != snap.Hash() {
					a, b := snap.Bytes(), again.Bytes()
					i := 0
					for i < len(a) && i < len(b) && a[i] == b[i] {
						i++
					}
					t.Fatalf("re-captured snapshot differs from the one restored: first differing byte at offset %d (%d vs %d bytes)",
						i, len(a), len(b))
				}
			})
		}
	}
}
