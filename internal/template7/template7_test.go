package template7

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"press/internal/metrics"
)

// synthSeries builds a throughput series following a stage profile.
func synthSeries(levels []float64, stageLen time.Duration) *metrics.Series {
	s := metrics.NewSeries(time.Second)
	t := time.Duration(0)
	for _, lvl := range levels {
		for ; t < t+stageLen; t += time.Second {
			s.Add(t, lvl)
			if t >= stageLen {
				break
			}
		}
	}
	return s
}

func flatSeries(until time.Duration, segments map[[2]time.Duration]float64) *metrics.Series {
	s := metrics.NewSeries(time.Second)
	for t := time.Duration(0); t < until; t += time.Second {
		v := 0.0
		for span, lvl := range segments {
			if t >= span[0] && t < span[1] {
				v = lvl
			}
		}
		s.Add(t, v)
	}
	return s
}

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestExtractFullEpisode(t *testing.T) {
	// 0-100s normal @100; fault at 100; detect 120; stable 130; degraded
	// @70 until repair 200; transient to 230; suboptimal @80 until reset
	// 300; reset to 320 @0; warmup to 350 @90; normal.
	tp := flatSeries(sec(400), map[[2]time.Duration]float64{
		{0, sec(100)}:        100,
		{sec(100), sec(120)}: 5,
		{sec(120), sec(130)}: 40,
		{sec(130), sec(200)}: 70,
		{sec(200), sec(230)}: 75,
		{sec(230), sec(300)}: 80,
		{sec(300), sec(320)}: 0,
		{sec(320), sec(350)}: 90,
		{sec(350), sec(400)}: 100,
	})
	m := Markers{
		Fault: sec(100), Detect: sec(120), Stable1: sec(130),
		Recover: sec(200), Stable2: sec(230),
		Reset: sec(300), AllUp: sec(320), End: sec(350),
	}
	tpl, err := Extract("scsi-timeout", tp, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.NeedsReset {
		t.Fatal("NeedsReset = false")
	}
	wantDur := map[Stage]time.Duration{
		StageA: sec(20), StageB: sec(10), StageC: sec(70), StageD: sec(30),
		StageE: sec(70), StageF: sec(20), StageG: sec(30),
	}
	for s, d := range wantDur {
		if tpl.Durations[s] != d {
			t.Errorf("stage %s duration %v, want %v", s, tpl.Durations[s], d)
		}
	}
	approx := func(s Stage, want float64) {
		if got := tpl.Throughputs[s]; got < want-2 || got > want+2 {
			t.Errorf("stage %s throughput %v, want ~%v", s, got, want)
		}
	}
	approx(StageA, 5)
	approx(StageB, 40)
	approx(StageC, 70)
	approx(StageD, 75)
	approx(StageE, 80)
	approx(StageF, 0)
	approx(StageG, 90)
}

func TestExtractNoReset(t *testing.T) {
	tp := flatSeries(sec(300), map[[2]time.Duration]float64{
		{0, sec(100)}:        100,
		{sec(100), sec(115)}: 0,
		{sec(115), sec(125)}: 50,
		{sec(125), sec(200)}: 75,
		{sec(200), sec(220)}: 85,
		{sec(220), sec(300)}: 100,
	})
	m := Markers{Fault: sec(100), Detect: sec(115), Stable1: sec(125), Recover: sec(200), Stable2: sec(220), End: sec(300)}
	tpl, err := Extract("node-crash", tp, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.NeedsReset {
		t.Fatal("NeedsReset = true without a reset marker")
	}
	if tpl.Durations[StageF] != 0 || tpl.Durations[StageG] != 0 {
		t.Fatal("F/G present without a reset")
	}
	// Stage E carries the observed post-recovery window.
	if tpl.Durations[StageE] != sec(80) {
		t.Fatalf("stage E duration %v", tpl.Durations[StageE])
	}
}

func TestExtractRejectsDisorderedMarkers(t *testing.T) {
	tp := metrics.NewSeries(time.Second)
	_, err := Extract("x", tp, Markers{Fault: sec(10), Detect: sec(5), Stable1: sec(6), Recover: sec(7), Stable2: sec(8), End: sec(9)}, 100)
	if err == nil {
		t.Fatal("no error on disordered markers")
	}
}

func TestModelDurationsSubstitution(t *testing.T) {
	tpl := Template{
		Label:      "x",
		Normal:     100,
		NeedsReset: true,
	}
	tpl.Durations[StageA] = sec(20)
	tpl.Durations[StageB] = sec(10)
	tpl.Durations[StageC] = sec(70) // measured window, to be replaced
	tpl.Durations[StageD] = sec(30)
	tpl.Durations[StageE] = sec(70) // measured window, to be replaced
	tpl.Durations[StageF] = sec(20)
	tpl.Durations[StageG] = sec(30)

	d := tpl.ModelDurations(time.Hour, 30*time.Minute)
	if d[StageC] != time.Hour-sec(30) {
		t.Fatalf("C = %v, want MTTR - A - B", d[StageC])
	}
	if d[StageE] != 30*time.Minute {
		t.Fatalf("E = %v, want operator response", d[StageE])
	}
	if d[StageF] != sec(20) || d[StageG] != sec(30) {
		t.Fatal("F/G altered")
	}

	// Without reset, E/F/G vanish.
	tpl.NeedsReset = false
	d = tpl.ModelDurations(time.Hour, 30*time.Minute)
	if d[StageE] != 0 || d[StageF] != 0 || d[StageG] != 0 {
		t.Fatal("E/F/G nonzero without reset")
	}

	// MTTR shorter than detection: C clamps to zero.
	d = tpl.ModelDurations(sec(5), 0)
	if d[StageC] != 0 {
		t.Fatalf("C = %v with tiny MTTR", d[StageC])
	}
}

func TestFindStable(t *testing.T) {
	tp := metrics.NewSeries(time.Second)
	for i := 0; i < 30; i++ { // noisy transient before the plateau
		tp.Add(sec(i), float64((i*53)%91)+20)
	}
	for i := 30; i < 100; i++ {
		tp.Add(sec(i), 80)
	}
	at := FindStable(tp, sec(10), sec(90), 5, 0.05)
	if at < sec(25) || at > sec(35) {
		t.Fatalf("FindStable = %v, want ~30s", at)
	}
	// Never stabilizes inside the bound: falls back to the limit.
	noisy := metrics.NewSeries(time.Second)
	for i := 0; i < 100; i++ {
		noisy.Add(sec(i), float64((i*37)%97)*10)
	}
	if at := FindStable(noisy, sec(10), sec(60), 5, 0.01); at != sec(60) {
		t.Fatalf("fallback = %v, want limit", at)
	}
}

func TestValidate(t *testing.T) {
	tpl := Template{Normal: -1}
	if tpl.Validate() == nil {
		t.Fatal("negative normal accepted")
	}
	tpl = Template{Normal: 10}
	tpl.Throughputs[StageB] = -5
	if tpl.Validate() == nil {
		t.Fatal("negative throughput accepted")
	}
}

func TestStringRendersAllStages(t *testing.T) {
	tpl := Template{Label: "node-crash", Normal: 100}
	out := tpl.String()
	for s := StageA; s < NumStages; s++ {
		if !strings.Contains(out, s.String()+":") {
			t.Fatalf("stage %s missing from rendering:\n%s", s, out)
		}
	}
}

// Property: extraction never produces negative durations or throughputs
// for any ordered marker set.
func TestQuickExtractNonNegative(t *testing.T) {
	f := func(gaps [6]uint8, levels [8]uint8) bool {
		m := Markers{Fault: sec(10)}
		m.Detect = m.Fault + sec(int(gaps[0])%50)
		m.Stable1 = m.Detect + sec(int(gaps[1])%50)
		m.Recover = m.Stable1 + sec(int(gaps[2])%50)
		m.Stable2 = m.Recover + sec(int(gaps[3])%50)
		m.Reset = m.Stable2 + sec(int(gaps[4])%50)
		m.AllUp = m.Reset + sec(1)
		m.End = m.AllUp + sec(int(gaps[5])%50+1)
		tp := metrics.NewSeries(time.Second)
		for i := time.Duration(0); i < m.End; i += time.Second {
			tp.Add(i, float64(levels[(i/time.Second)%8]))
		}
		tpl, err := Extract("q", tp, m, 100)
		if err != nil {
			return false
		}
		return tpl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
