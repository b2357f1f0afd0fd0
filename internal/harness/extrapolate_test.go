package harness

import (
	"testing"
	"time"

	"press/internal/avail"
	"press/internal/faults"
	"press/internal/template7"
)

// syntheticCOOP builds a COOP campaign result without running the
// simulator, so the prediction rules can be unit-tested in isolation.
func syntheticCOOP(offered float64) CampaignResult {
	res := CampaignResult{Version: VCOOP, Opts: Options{}.withDefaults(), Normal: offered, Offered: offered}
	for _, spec := range faults.Table1(4, 2, false) {
		tpl := template7.Template{Label: spec.Type.String(), Normal: offered}
		tpl.Durations[template7.StageA] = 20 * time.Second
		tpl.Throughputs[template7.StageA] = 0.2 * offered // deep wedge
		tpl.Durations[template7.StageB] = 5 * time.Second
		tpl.Throughputs[template7.StageB] = 0.8 * offered
		tpl.Throughputs[template7.StageC] = 0.7 * offered
		tpl.Durations[template7.StageD] = 5 * time.Second
		tpl.Throughputs[template7.StageD] = 0.8 * offered
		tpl.NeedsReset = spec.Type != faults.NodeCrash && spec.Type != faults.AppCrash
		if tpl.NeedsReset {
			tpl.Throughputs[template7.StageE] = 0.75 * offered
			tpl.Durations[template7.StageF] = 30 * time.Second
			tpl.Durations[template7.StageG] = 60 * time.Second
			tpl.Throughputs[template7.StageG] = 0.85 * offered
		}
		res.Loads = append(res.Loads, avail.FaultLoad{Spec: spec, Tpl: tpl})
	}
	return res
}

// stubSaturations returns an engine whose topology-keyed saturation memo
// is pre-seeded, so the prediction rules don't trigger real probes.
func stubSaturations(o Options, perNode float64) *Engine {
	o = o.withDefaults()
	eng := NewEngine(0)
	for _, v := range []Version{VCOOP, VFEX, VMEM, VQMON, VMQ, VFME, VSFME, VCMON, VINDEP, VFEXINDEP} {
		sat := perNode * float64(serverCount(v, o))
		eng.saturations.do(keyForTraits(versionTraits(v), o), func() (float64, error) { return sat, nil })
	}
	return eng
}

func modelOf(t *testing.T, eng *Engine, coop CampaignResult, v Version, o Options) avail.Result {
	t.Helper()
	r, err := PredictResult(eng, coop, v, o, avail.DefaultEnv())
	if err != nil {
		t.Fatalf("predict %v: %v", v, err)
	}
	return r
}

func TestPredictionOrdering(t *testing.T) {
	o := Options{Seed: 1}.withDefaults()
	eng := stubSaturations(o, 80)
	coop := syntheticCOOP(288) // 0.9 * 4 * 80

	base, err := coop.Model(avail.DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	mq := modelOf(t, eng, coop, VMQ, o)
	fme := modelOf(t, eng, coop, VFME, o)
	cmon := modelOf(t, eng, coop, VCMON, o)

	// The paper's ladder: FME < MQ < COOP, and C-MON at least as good as FME.
	if !(fme.Unavailability < mq.Unavailability && mq.Unavailability < base.Unavailability) {
		t.Fatalf("ordering broken: COOP=%v MQ=%v FME=%v", base.Unavailability, mq.Unavailability, fme.Unavailability)
	}
	if cmon.Unavailability > fme.Unavailability+1e-9 {
		t.Fatalf("C-MON %v worse than FME %v", cmon.Unavailability, fme.Unavailability)
	}
	// FME must deliver the bulk of the reduction (paper: 94%).
	if red := 1 - fme.Unavailability/base.Unavailability; red < 0.6 {
		t.Fatalf("FME reduction only %.0f%%", 100*red)
	}
}

func TestPredictionMEMBlindSpots(t *testing.T) {
	// MEM cannot handle SCSI timeouts or application hangs: those two
	// classes must dominate its predicted unavailability, and each must
	// be no better than COOP's.
	o := Options{Seed: 1}.withDefaults()
	eng := stubSaturations(o, 80)
	coop := syntheticCOOP(288)
	base, _ := coop.Model(avail.DefaultEnv())
	mem := modelOf(t, eng, coop, VMEM, o)
	mq := modelOf(t, eng, coop, VMQ, o)
	fme := modelOf(t, eng, coop, VFME, o)
	// The blind-spot classes stay large for MEM: well above MQ's clean
	// exclusion and far above FME's translation. (They can sit below
	// COOP's absolute bars, whose operator tail MEM episodes don't carry.)
	for _, k := range []string{"scsi-timeout", "app-hang"} {
		if mem.ByFault[k] < 2*mq.ByFault[k] {
			t.Fatalf("MEM %s = %v vs MQ %v: membership should not handle this class",
				k, mem.ByFault[k], mq.ByFault[k])
		}
		if mem.ByFault[k] < 5*fme.ByFault[k] {
			t.Fatalf("MEM %s = %v vs FME %v: the blind spot should dwarf FME's residue",
				k, mem.ByFault[k], fme.ByFault[k])
		}
	}
	_ = base
	// But it fixes the node-level classes.
	for _, k := range []string{"node-freeze", "link-down"} {
		if mem.ByFault[k] > 0.7*base.ByFault[k] {
			t.Fatalf("MEM %s = %v vs COOP %v: membership should help here", k, mem.ByFault[k], base.ByFault[k])
		}
	}
}

func TestPredictionQMONRegression(t *testing.T) {
	// QMON alone never re-admits recovered nodes: freezes and hangs keep
	// the operator tail, so those classes should not improve much over
	// COOP even though SCSI improves.
	o := Options{Seed: 1}.withDefaults()
	eng := stubSaturations(o, 80)
	coop := syntheticCOOP(288)
	base, _ := coop.Model(avail.DefaultEnv())
	qm := modelOf(t, eng, coop, VQMON, o)
	mem := modelOf(t, eng, coop, VMEM, o)
	if qm.ByFault["scsi-timeout"] >= base.ByFault["scsi-timeout"] {
		t.Fatalf("QMON scsi %v not better than COOP %v", qm.ByFault["scsi-timeout"], base.ByFault["scsi-timeout"])
	}
	// The paper's regression: QMON is worse than MEM for freezes and
	// hangs because it never re-admits the recovered node.
	for _, k := range []string{"node-freeze", "app-hang"} {
		if qm.ByFault[k] <= mem.ByFault[k] {
			t.Fatalf("QMON %s = %v should regress vs MEM %v (no re-admission)", k, qm.ByFault[k], mem.ByFault[k])
		}
	}
}

func TestPredictionFlapPenalty(t *testing.T) {
	// The MQ divergence (§4.4): for hangs, MQ's stage-C throughput is
	// discounted relative to a hypothetical clean exclusion.
	o := Options{Seed: 1}.withDefaults()
	eng := stubSaturations(o, 80)
	coop := syntheticCOOP(288)
	mqLoads := PredictLoads(eng, coop, VMQ, o)
	fmeLoads := PredictLoads(eng, coop, VFME, o)
	var mqHang, fmeHang template7.Template
	for i := range mqLoads {
		if mqLoads[i].Spec.Type == faults.AppHang {
			mqHang = mqLoads[i].Tpl
			fmeHang = fmeLoads[i].Tpl
		}
	}
	if mqHang.Throughputs[template7.StageC] >= fmeHang.Throughputs[template7.StageC] {
		t.Fatalf("MQ hang stage C %v should be below FME's %v (flapping)",
			mqHang.Throughputs[template7.StageC], fmeHang.Throughputs[template7.StageC])
	}
}

func TestPredictionFrontendSynthesized(t *testing.T) {
	// COOP has no front-end; predictions for FE versions must still carry
	// a frontend-failure load.
	o := Options{Seed: 1}.withDefaults()
	eng := stubSaturations(o, 80)
	coop := syntheticCOOP(288)
	loads := PredictLoads(eng, coop, VFEX, o)
	found := false
	for _, l := range loads {
		if l.Spec.Type == faults.FrontendFailure {
			found = true
			if l.Tpl.Throughputs[template7.StageC] != 0 {
				t.Fatal("single front-end failure should be a total outage")
			}
		}
	}
	if !found {
		t.Fatal("no frontend-failure load synthesized")
	}
}
