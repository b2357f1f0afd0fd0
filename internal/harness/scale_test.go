package harness

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"press/internal/avail"
	"press/internal/faults"
	"press/internal/template7"
)

// scaleOpts is the large-N test profile: the reduced-scale world with an
// explicit offered load (40 req/s per node — well under per-node
// saturation, so the 120×N saturation probe never runs) on the Scalable
// protocol suite.
func scaleOpts(seed int64, n int) Options {
	o := FastOptions(seed)
	o.Nodes = n
	o.Protocol = Scalable
	o.Rate = 40 * float64(n)
	return o
}

// TestScalableEpisode64 is the short tier's scale anchor: a 64-node COOP
// cluster on the Scalable suite absorbs a node crash end to end —
// detect, exclude, reintegrate — and the episode's fitted template shows
// the crash cost ~1/64 of service, not a stall.
func TestScalableEpisode64(t *testing.T) {
	ep, err := NewEngine(0).RunEpisode(VCOOP, scaleOpts(1, 64), faults.NodeCrash, 1, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if ep.Markers.Detect <= ep.Markers.Fault {
		t.Fatalf("no detection after the fault: %+v", ep.Markers)
	}
	if ep.Markers.Recover <= ep.Markers.Fault {
		t.Fatalf("no recovery: %+v", ep.Markers)
	}
	if ep.Normal <= 0 {
		t.Fatal("no fault-free throughput measured")
	}
	degraded := ep.Tpl.Throughputs[template7.StageC] / ep.Normal
	if degraded < 0.90 {
		t.Fatalf("64-node crash degraded service to %.3f of normal; one node is 1/64 of capacity", degraded)
	}
}

// TestScaleExtrapolationCrossValidation is the honesty check on §6.3's
// scaling arithmetic: take the measured 4-node faithful COOP node-crash
// template, extrapolate its degraded stage to N nodes with
// avail.ScaleTemplate (lost fraction shrinks by k = N/4), and compare
// against the degraded stage actually measured on an N-node Scalable
// run. The two must agree within 0.05 absolute on the service fraction —
// the tolerance DESIGN.md §16 documents (the extrapolation ignores
// protocol differences and cache reshuffle; the measured run has both).
func TestScaleExtrapolationCrossValidation(t *testing.T) {
	eng := NewEngine(0)
	base, err := eng.RunEpisode(VCOOP, FastOptions(1), faults.NodeCrash, 1, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{16}
	if !testing.Short() {
		sizes = append(sizes, 64)
	}
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			k := float64(n) / 4
			scaled := avail.ScaleTemplate(base.Tpl, k, 0.05)
			predicted := scaled.Throughputs[template7.StageC] / scaled.Normal

			ep, err := eng.RunEpisode(VCOOP, scaleOpts(1, n), faults.NodeCrash, 1, FastSchedule())
			if err != nil {
				t.Fatal(err)
			}
			measured := ep.Tpl.Throughputs[template7.StageC] / ep.Normal
			if diff := math.Abs(predicted - measured); diff > 0.05 {
				t.Fatalf("N=%d: extrapolated degraded fraction %.4f vs measured %.4f (|diff| %.4f > 0.05)",
					n, predicted, measured, diff)
			}
		})
	}
}

// TestFaithfulDefaultsUnchanged guards the compatibility contract: zero
// Options still mean the paper's 4-node faithful world, and the Scalable
// suite is strictly opt-in.
func TestFaithfulDefaultsUnchanged(t *testing.T) {
	topo := NewTopology(VCOOP, Options{}.withDefaults())
	if topo.Nodes != 4 || topo.Protocol != Faithful {
		t.Fatalf("default topology drifted: %+v", topo)
	}
	ids := topo.ServerIDs()
	if len(ids) != 4 || ids[0] != 0 || ids[3] != 3 {
		t.Fatalf("default server IDs drifted: %v", ids)
	}
}

// TestSaturationMemoKeyedByProtocol: the two suites must not share a
// saturation probe — the sharded directory changes capacity.
func TestSaturationMemoKeyedByProtocol(t *testing.T) {
	o := FastOptions(3).withDefaults()
	faithKey := keyForTraits(versionTraits(VCOOP), o)
	o.Protocol = Scalable
	scalKey := keyForTraits(versionTraits(VCOOP), o)
	if faithKey == scalKey {
		t.Fatal("saturation memo key ignores the protocol suite")
	}
}

// TestScalableEpisodeDeterministic: same options, fresh engines — the
// large-N gossip/sharded paths must stay bit-deterministic like the
// faithful ones (target draws come from labeled sim streams, never maps).
func TestScalableEpisodeDeterministic(t *testing.T) {
	run := func() Episode {
		ep, err := NewEngine(0).RunEpisode(VCOOP, scaleOpts(5, 16), faults.NodeCrash, 1, FastSchedule())
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a, b := run(), run()
	if a.Normal != b.Normal || a.Markers != b.Markers {
		t.Fatalf("scalable episode not deterministic:\n%+v\nvs\n%+v", a.Markers, b.Markers)
	}
	for s := template7.Stage(0); s < template7.NumStages; s++ {
		if a.Tpl.Throughputs[s] != b.Tpl.Throughputs[s] || a.Tpl.Durations[s] != b.Tpl.Durations[s] {
			t.Fatalf("stage %v diverged between identical runs", s)
		}
	}
	_ = time.Second
}

// unexportedLen reads the length of a slice, map or bounded pool held in
// the named unexported field of *obj. A cnet.MsgPool's free list is its
// only field, so a pool reads as its first field's length.
func unexportedLen(obj any, field string) int {
	v := reflect.ValueOf(obj).Elem().FieldByName(field)
	if v.Kind() == reflect.Struct {
		v = v.Field(0)
	}
	return v.Len()
}

// TestScalableFootprint64 checks that resident
// simulator state follows live work, on counts that repeat exactly: at
// steady state a 64-node world keeps no free list above its bound (its
// boot storm dialed 4,032 connections), exactly one machine-layer record
// per attached connection end, and an event queue of tickers plus
// in-flight work — not the six seconds of finished requests' timeouts it
// used to carry.
func TestScalableFootprint64(t *testing.T) {
	const nodes, poolCap = 64, 64
	o := scaleOpts(1, nodes)
	c := NewEngine(1).Build(VCOOP, o)
	c.Gen.Start()
	c.Sim.RunFor(20 * time.Second)

	for _, f := range []string{"dgramFree", "streamFree", "dialFree", "batchFree", "pairFree"} {
		if n := unexportedLen(c.Net, f); n > poolCap {
			t.Errorf("simnet %s holds %d records at steady state, bound %d", f, n, poolCap)
		}
	}
	if n := unexportedLen(c.Gen, "reqFree"); n > poolCap {
		t.Errorf("workload reqFree holds %d records, bound %d", n, poolCap)
	}
	ends := 0
	for _, m := range c.Machines {
		for _, f := range []string{"hopFree", "segFree"} {
			if n := unexportedLen(m, f); n > poolCap {
				t.Errorf("machine %d %s holds %d records, bound %d", m.ID(), f, n, poolCap)
			}
		}
		attached := unexportedLen(m.Iface(), "conns")
		records := 0
		procs := reflect.ValueOf(m).Elem().FieldByName("procs")
		for it := procs.MapRange(); it.Next(); {
			records += it.Value().Elem().FieldByName("conns").Len()
		}
		if records != attached {
			t.Errorf("machine %d: %d connection records for %d attached connection ends", m.ID(), records, attached)
		}
		ends += attached
	}
	if mesh := 2 * nodes * (nodes - 1); ends < mesh {
		t.Errorf("%d connection ends attached, want at least the full mesh's %d", ends, mesh)
	}

	// 2,560 req/s: six seconds of dead complete timeouts alone would be
	// 15,360 events. What remains is a handful of tickers per node and the
	// requests in flight.
	if n, limit := c.Sim.Pending(), int(o.Rate)/2; n > limit {
		t.Errorf("%d events pending at steady state, want at most %d", n, limit)
	}
	t.Logf("ends %d, pending %d, high-water %d", ends, c.Sim.Pending(), c.Sim.MaxQueued())
}
