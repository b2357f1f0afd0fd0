package harness

import (
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/frontend"
	"press/internal/template7"
)

// TestRedundantFETakeover: with a primary/standby pair, a front-end crash
// costs only the takeover window (a few pair heartbeats) instead of the
// whole repair time.
func TestRedundantFETakeover(t *testing.T) {
	t.Parallel()
	o := FastOptions(1)
	o.RedundantFE = true
	ep, err := NewEngine(0).RunEpisode(VFEX, o, faults.FrontendFailure, 0, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("markers=%+v\n%s", ep.Markers, ep.Tpl)
	if ep.Tpl.NeedsReset {
		t.Fatal("takeover should not need an operator")
	}
	// Stage C (fault present, backup serving) must be near-normal.
	if c := ep.Tpl.Throughputs[template7.StageC]; c < 0.85*ep.Normal {
		t.Fatalf("stage C %.1f of %.1f: takeover ineffective", c, ep.Normal)
	}
	// The takeover event must be logged.
	if _, ok := ep.Log.Query().Kind(frontend.KTakeover).After(ep.Markers.Fault).First(); !ok {
		t.Fatal("no takeover event")
	}
}

// TestRedundantFEvsSingle compares the FE-failure episode loss.
func TestRedundantFEvsSingle(t *testing.T) {
	t.Parallel()
	lost := func(redundant bool) float64 {
		o := FastOptions(1)
		o.RedundantFE = redundant
		ep, err := NewEngine(0).RunEpisode(VFEX, o, faults.FrontendFailure, 0, FastSchedule())
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for s := template7.StageA; s < template7.NumStages; s++ {
			sum += ep.Tpl.Durations[s].Seconds() * (ep.Normal - ep.Tpl.Throughputs[s])
		}
		return sum
	}
	single := lost(false)
	pair := lost(true)
	t.Logf("lost work: single FE %.0f, FE pair %.0f requests", single, pair)
	if pair > single/3 {
		t.Fatalf("pair lost %.0f vs single %.0f; takeover buys too little", pair, single)
	}
}

// TestRedundantFEIdleIsHarmless: with no faults the pair must behave like
// a single front-end.
func TestRedundantFEIdleIsHarmless(t *testing.T) {
	t.Parallel()
	o := FastOptions(1)
	o.RedundantFE = true
	c := NewEngine(0).Build(VFEX, o)
	c.Gen.Start()
	c.Sim.RunFor(o.Warmup + 60*time.Second)
	if av := c.Rec.Availability(o.Warmup+10*time.Second, c.Sim.Now()-8*time.Second); av < 0.99 {
		t.Fatalf("availability %v with idle standby", av)
	}
	if (*c.standby).Active() {
		t.Fatal("standby took over without a fault")
	}
	if !c.Reintegrated() {
		t.Fatal("cluster not whole")
	}
}
