package avail

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"press/internal/faults"
	"press/internal/template7"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// simpleLoad builds a one-fault load: n components, given MTTF/MTTR,
// detection outage of aDur at aTp, degraded level cTp, optional reset.
func simpleLoad(t faults.Type, n int, mttf, mttr time.Duration, w0, aTp, cTp float64, aDur time.Duration, reset bool) FaultLoad {
	tpl := template7.Template{Label: t.String(), Normal: w0, NeedsReset: reset}
	tpl.Durations[template7.StageA] = aDur
	tpl.Throughputs[template7.StageA] = aTp
	tpl.Throughputs[template7.StageC] = cTp
	if reset {
		tpl.Throughputs[template7.StageE] = cTp
		tpl.Durations[template7.StageF] = sec(20)
		tpl.Throughputs[template7.StageF] = 0
	}
	return FaultLoad{
		Spec: faults.Spec{Type: t, MTTF: mttf, MTTR: mttr, Components: n},
		Tpl:  tpl,
	}
}

func TestAvailabilityNoFaultsIsPerfect(t *testing.T) {
	res, err := Availability(100, 100, nil, DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.AA != 1 || res.Unavailability != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestAvailabilityHandComputed(t *testing.T) {
	// One fault class: 1 component, MTTF 1000 s, MTTR 100 s. Stage A: 10 s
	// at 0 req/s; stage C: 90 s at 50 req/s; no reset. Offered = W0 = 100.
	//
	// Per fault: T = 100 s; work = 10·0 + 90·50 = 4500.
	// rate = 1/1000. faultFraction = 0.1. faultThroughput = 4.5.
	// AT = 0.9·100 + 4.5 = 94.5 → AA = 0.945, U = 5.5%.
	load := simpleLoad(faults.NodeCrash, 1, sec(1000), sec(100), 100, 0, 50, sec(10), false)
	res, err := Availability(100, 100, []FaultLoad{load}, DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AT-94.5) > 1e-9 {
		t.Fatalf("AT = %v, want 94.5", res.AT)
	}
	if math.Abs(res.Unavailability-5.5) > 1e-9 {
		t.Fatalf("U = %v, want 5.5", res.Unavailability)
	}
	if math.Abs(res.ByFault["node-crash"]-5.5) > 1e-9 {
		t.Fatalf("ByFault = %v", res.ByFault)
	}
}

func TestComponentsMultiplyRate(t *testing.T) {
	one := simpleLoad(faults.NodeCrash, 1, sec(10000), sec(100), 100, 0, 50, sec(10), false)
	four := one
	four.Spec.Components = 4
	r1, _ := Availability(100, 100, []FaultLoad{one}, DefaultEnv())
	r4, _ := Availability(100, 100, []FaultLoad{four}, DefaultEnv())
	if math.Abs(r4.Unavailability-4*r1.Unavailability) > 1e-9 {
		t.Fatalf("U1=%v U4=%v", r1.Unavailability, r4.Unavailability)
	}
}

func TestOperatorResponseExtendsStageE(t *testing.T) {
	load := simpleLoad(faults.NodeFreeze, 1, sec(100000), sec(100), 100, 0, 50, sec(10), true)
	fast, _ := Availability(100, 100, []FaultLoad{load}, Env{OperatorResponse: sec(60)})
	slow, _ := Availability(100, 100, []FaultLoad{load}, Env{OperatorResponse: sec(3600)})
	if slow.Unavailability <= fast.Unavailability {
		t.Fatalf("slow operator %v <= fast %v", slow.Unavailability, fast.Unavailability)
	}
}

func TestThroughputCappedAtOffered(t *testing.T) {
	load := simpleLoad(faults.NodeCrash, 1, sec(1000), sec(100), 100, 0, 500 /* > offered */, sec(10), false)
	res, err := Availability(100, 100, []FaultLoad{load}, DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Stage C at full offered rate contributes no loss; only stage A does.
	want := 100 * (1.0 / 1000) * 10 * (100.0 - 0) / 100
	if math.Abs(res.Unavailability-want) > 1e-9 {
		t.Fatalf("U = %v, want %v", res.Unavailability, want)
	}
}

func TestOverlapDetected(t *testing.T) {
	load := simpleLoad(faults.NodeCrash, 100, sec(100), sec(90), 100, 0, 0, sec(10), false)
	if _, err := Availability(100, 100, []FaultLoad{load}, DefaultEnv()); err == nil {
		t.Fatal("no error with fault fraction > 1")
	}
}

func TestBadOffered(t *testing.T) {
	if _, err := Availability(100, 0, nil, DefaultEnv()); err == nil {
		t.Fatal("no error for zero offered load")
	}
}

func TestRedundancyScaling(t *testing.T) {
	loads := []FaultLoad{
		simpleLoad(faults.SCSITimeout, 8, 365*24*time.Hour, time.Hour, 100, 0, 75, sec(15), true),
		simpleLoad(faults.SwitchDown, 1, 365*24*time.Hour, time.Hour, 100, 25, 25, sec(15), false),
		simpleLoad(faults.NodeCrash, 4, 336*time.Hour, sec(180), 100, 0, 75, sec(15), false),
	}
	base, _ := Availability(100, 100, loads, DefaultEnv())
	raid, _ := Availability(100, 100, WithRAID(loads), DefaultEnv())
	sw, _ := Availability(100, 100, WithBackupSwitch(loads), DefaultEnv())
	// The 438x factor saturates at Duration's ~292-year ceiling.
	if raid.ByFault["scsi-timeout"] >= base.ByFault["scsi-timeout"]/250 {
		t.Fatalf("RAID did not shrink SCSI term: %v vs %v", raid.ByFault["scsi-timeout"], base.ByFault["scsi-timeout"])
	}
	if raid.ByFault["node-crash"] != base.ByFault["node-crash"] {
		t.Fatal("RAID changed an unrelated term")
	}
	if sw.ByFault["switch-down"] >= base.ByFault["switch-down"]/30 {
		t.Fatalf("backup switch did not shrink switch term")
	}
}

func TestScaleLoadsComponentCountsAndThroughputs(t *testing.T) {
	w0 := 100.0
	loads := []FaultLoad{
		// Node crash: stage A total outage, stage C at 3/4 capacity.
		simpleLoad(faults.NodeCrash, 4, 336*time.Hour, sec(180), w0, 0, 75, sec(15), false),
		simpleLoad(faults.SwitchDown, 1, 8760*time.Hour, time.Hour, w0, 50, 50, sec(15), false),
	}
	scaled := ScaleLoads(loads, 2, 0.1)
	if scaled[0].Spec.Components != 8 {
		t.Fatalf("node components %d, want 8", scaled[0].Spec.Components)
	}
	if scaled[1].Spec.Components != 1 {
		t.Fatalf("switch components %d, want 1", scaled[1].Spec.Components)
	}
	tpl := scaled[0].Tpl
	if tpl.Normal != 2*w0 {
		t.Fatalf("scaled normal %v", tpl.Normal)
	}
	// Total outage stays ~0.
	if tpl.Throughputs[template7.StageA] != 0 {
		t.Fatalf("outage stage scaled to %v", tpl.Throughputs[template7.StageA])
	}
	// Losing 1 of 4 (75%) becomes losing 1 of 8 (87.5% of 200 = 175).
	if math.Abs(tpl.Throughputs[template7.StageC]-175) > 1e-9 {
		t.Fatalf("stage C scaled to %v, want 175", tpl.Throughputs[template7.StageC])
	}
	// Durations unchanged.
	if tpl.Durations[template7.StageA] != sec(15) {
		t.Fatal("durations changed")
	}
}

func TestScalingOutageDominatedDoubles(t *testing.T) {
	// The paper's §6.3 rules: total-outage stages stay total outages at
	// any size, so a fault load dominated by them doubles its
	// unavailability when per-node fault rates double — the COOP
	// behaviour of Figure 10.
	w0 := 100.0
	outage := simpleLoad(faults.NodeFreeze, 4, 336*time.Hour, sec(180), w0, 0, 0 /* C also a full outage */, sec(25), false)
	base, _ := Availability(w0, w0, []FaultLoad{outage}, DefaultEnv())
	double, _ := Availability(2*w0, 2*w0, ScaleLoads([]FaultLoad{outage}, 2, 0.1), DefaultEnv())
	if ratio := double.Unavailability / base.Unavailability; math.Abs(ratio-2) > 0.05 {
		t.Fatalf("outage-dominated scaling ratio %v, want 2", ratio)
	}
}

func TestScalingRerouteDominatedStaysFlat(t *testing.T) {
	// Conversely, a stage whose loss is one node's share scales as
	// (kn−1)/kn: doubled rate × halved loss = flat — the FME behaviour
	// of Figure 9.
	w0 := 100.0
	reroute := simpleLoad(faults.NodeCrash, 4, 336*time.Hour, sec(180), w0, 75, 75, sec(15), false)
	reroute.Tpl.Durations[template7.StageA] = 0 // pure reroute, no outage window
	base, _ := Availability(w0, w0, []FaultLoad{reroute}, DefaultEnv())
	double, _ := Availability(2*w0, 2*w0, ScaleLoads([]FaultLoad{reroute}, 2, 0.1), DefaultEnv())
	if ratio := double.Unavailability / base.Unavailability; math.Abs(ratio-1) > 0.05 {
		t.Fatalf("reroute-dominated scaling ratio %v, want ~1", ratio)
	}
}

// Property: unavailability is monotone in MTTR and never negative, and
// AA stays within [0,1], across random single-fault loads.
func TestQuickModelBounds(t *testing.T) {
	f := func(mttfS uint32, mttrS uint16, aS uint8, cTp uint8, reset bool) bool {
		mttf := time.Duration(int(mttfS)%1000000+10000) * time.Second
		mttr := time.Duration(int(mttrS)%3600+1) * time.Second
		load := simpleLoad(faults.AppHang, 4, mttf, mttr, 100, 0, float64(int(cTp)%101), time.Duration(int(aS)%60)*time.Second, reset)
		res, err := Availability(100, 100, []FaultLoad{load}, DefaultEnv())
		if err != nil {
			return true // overlap rejection is acceptable
		}
		if res.AA < 0 || res.AA > 1 || res.Unavailability < -1e-9 {
			return false
		}
		longer := load
		longer.Spec.MTTR = mttr * 2
		res2, err := Availability(100, 100, []FaultLoad{longer}, DefaultEnv())
		if err != nil {
			return true
		}
		return res2.Unavailability >= res.Unavailability-1e-9
	}
	// A fault whose every stage serves the whole load once summed to an
	// AT an ulp above the offered load, so AA read above 1.
	if !f(0xfbc1b1d7, 0xd10f, 0xf0, 0xc9, false) {
		t.Fatal("a fault that loses nothing reads an availability outside [0, 1]")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWithRedundantFrontend(t *testing.T) {
	loads := []FaultLoad{
		simpleLoad(faults.FrontendFailure, 1, 4320*time.Hour, sec(180), 100, 0, 0, 0, false),
		simpleLoad(faults.NodeCrash, 4, 336*time.Hour, sec(180), 100, 0, 75, sec(15), false),
	}
	base, _ := Availability(100, 100, loads, DefaultEnv())
	red, _ := Availability(100, 100, WithRedundantFrontend(loads), DefaultEnv())
	if red.ByFault["frontend-failure"] >= base.ByFault["frontend-failure"]/20 {
		t.Fatalf("redundant FE shrank the term only to %v (from %v)",
			red.ByFault["frontend-failure"], base.ByFault["frontend-failure"])
	}
	if red.ByFault["node-crash"] != base.ByFault["node-crash"] {
		t.Fatal("unrelated term changed")
	}
}

func TestResultString(t *testing.T) {
	load := simpleLoad(faults.NodeCrash, 1, sec(1000), sec(100), 100, 0, 50, sec(10), false)
	res, _ := Availability(100, 100, []FaultLoad{load}, DefaultEnv())
	out := res.String()
	for _, want := range []string{"AT=", "unavailability=", "node-crash"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestScaleLoadsPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k<=0")
		}
	}()
	ScaleLoads(nil, 0, 0.1)
}

// Property: scaling by k then modeling yields unavailability between the
// base and k-times the base for any mixed load (outage terms scale up to
// k-fold; reroute terms stay flat).
func TestQuickScalingBounds(t *testing.T) {
	f := func(aTp, cTp uint8, aDur uint8, reset bool) bool {
		w0 := 100.0
		load := simpleLoad(faults.NodeFreeze, 4, 336*time.Hour, sec(180), w0,
			float64(int(aTp)%101), float64(int(cTp)%101), time.Duration(int(aDur)%60)*time.Second, reset)
		base, err := Availability(w0, w0, []FaultLoad{load}, DefaultEnv())
		if err != nil {
			return true
		}
		scaled, err := Availability(2*w0, 2*w0, ScaleLoads([]FaultLoad{load}, 2, 0.1), DefaultEnv())
		if err != nil {
			return true
		}
		// An outage-classified stage keeps its absolute (near-zero)
		// throughput, so its relative loss can slightly exceed 2x.
		lo, hi := 0.90*base.Unavailability, 2.15*base.Unavailability
		return scaled.Unavailability >= lo-1e-9 && scaled.Unavailability <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestResultStringSortsFaults pins the order of String's per-fault lines,
// which availcalc prints: sorted by fault name, and the same on every
// call, whatever order the map hands its keys out in.
func TestResultStringSortsFaults(t *testing.T) {
	r := Result{AT: 1000, AA: 0.999, Unavailability: 0.1, ByFault: map[string]float64{}}
	for i, name := range []string{"node-crash", "app-crash", "app-hang", "link-down", "switch-down",
		"disk-fail", "scsi-timeout", "node-freeze", "mem-leak", "net-partition", "fe-crash", "fe-hang"} {
		r.ByFault[name] = float64(i) / 100
	}
	var first []string
	for call := 0; call < 50; call++ {
		var lines []string
		for _, line := range strings.Split(r.String(), "\n") {
			if strings.HasPrefix(line, "  ") {
				lines = append(lines, strings.Fields(line)[0])
			}
		}
		if len(lines) != len(r.ByFault) {
			t.Fatalf("call %d printed %d per-fault lines, want %d", call, len(lines), len(r.ByFault))
		}
		if !slices.IsSorted(lines) {
			t.Fatalf("call %d printed the faults in the order %q", call, lines)
		}
		if first == nil {
			first = lines
		} else if !slices.Equal(lines, first) {
			t.Fatalf("call %d printed %q, the first call %q", call, lines, first)
		}
	}
}
