package template7

import (
	"testing"
	"time"
)

func TestFindDipsTwoDips(t *testing.T) {
	// Normal @100, dip to 20 over [50,80), recovered plateau, second
	// shallower dip to 60 over [120,140).
	tp := flatSeries(sec(200), map[[2]time.Duration]float64{
		{0, sec(50)}:         100,
		{sec(50), sec(80)}:   20,
		{sec(80), sec(120)}:  100,
		{sec(120), sec(140)}: 60,
		{sec(140), sec(200)}: 100,
	})
	dips := FindDips(tp, 0, sec(200), 100, 0)
	if len(dips) != 2 {
		t.Fatalf("found %d dips, want 2: %+v", len(dips), dips)
	}
	if dips[0].From != sec(50) || dips[0].To != sec(80) {
		t.Errorf("dip 0 spans [%v,%v), want [50s,80s)", dips[0].From, dips[0].To)
	}
	if dips[1].From != sec(120) || dips[1].To != sec(140) {
		t.Errorf("dip 1 spans [%v,%v), want [120s,140s)", dips[1].From, dips[1].To)
	}
	if dips[0].Min != 20 || dips[1].Min != 60 {
		t.Errorf("dip mins %v/%v, want 20/60", dips[0].Min, dips[1].Min)
	}
}

func TestFindDipsMergesShortRecovery(t *testing.T) {
	// Two below-threshold runs separated by a single recovered bucket:
	// noise, not a second episode — one dip.
	tp := flatSeries(sec(100), map[[2]time.Duration]float64{
		{0, sec(40)}:        100,
		{sec(40), sec(50)}:  10,
		{sec(50), sec(51)}:  100, // one lucky second
		{sec(51), sec(60)}:  10,
		{sec(60), sec(100)}: 100,
	})
	dips := FindDips(tp, 0, sec(100), 100, 0)
	if len(dips) != 1 {
		t.Fatalf("found %d dips, want 1 (gap under merge window): %+v", len(dips), dips)
	}
	if dips[0].From != sec(40) || dips[0].To != sec(60) {
		t.Errorf("merged dip spans [%v,%v), want [40s,60s)", dips[0].From, dips[0].To)
	}
}

func TestFindDipsOpenAtEnd(t *testing.T) {
	// A dip still open at the window end is reported up to the boundary.
	tp := flatSeries(sec(100), map[[2]time.Duration]float64{
		{0, sec(70)}:        100,
		{sec(70), sec(100)}: 5,
	})
	dips := FindDips(tp, 0, sec(100), 100, 0)
	if len(dips) != 1 || dips[0].From != sec(70) || dips[0].To != sec(100) {
		t.Fatalf("open-ended dip = %+v, want [70s,100s)", dips)
	}
	if dips[0].Depth < 0.9 {
		t.Errorf("depth %v, want ~0.95", dips[0].Depth)
	}
	if FindDips(tp, 0, sec(100), 0, 0) != nil {
		t.Error("non-positive normal should yield no dips")
	}
}

// A gray episode with a secondary dip: the post-repair stabilization
// search overshoots the reset marker (the chased fault reopened the
// hole), so Extract rejects the markers but ExtractMulti fits anyway and
// reports both dips.
func TestExtractMultiToleratesDisorder(t *testing.T) {
	tp := flatSeries(sec(300), map[[2]time.Duration]float64{
		{0, sec(100)}:        100,
		{sec(100), sec(130)}: 30, // primary dip
		{sec(130), sec(180)}: 100,
		{sec(180), sec(210)}: 50, // secondary dip after repair
		{sec(210), sec(300)}: 100,
	})
	m := Markers{
		Fault: sec(100), Detect: sec(110), Stable1: sec(120),
		Recover: sec(160),
		Stable2: sec(150), // disordered: "stabilized" before the repair
		End:     sec(300),
	}
	if _, err := Extract("gray", tp, m, 100); err == nil {
		t.Fatal("Extract accepted disordered markers")
	}
	tpl, dips, err := ExtractMulti("gray", tp, m, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The contradicted stage (D) collapses to zero; E carries the rest.
	if tpl.Durations[StageD] != 0 {
		t.Errorf("stage D = %v, want 0 after clamping", tpl.Durations[StageD])
	}
	if tpl.Durations[StageE] != sec(140) {
		t.Errorf("stage E = %v, want 140s (recover..end)", tpl.Durations[StageE])
	}
	if len(dips) != 2 {
		t.Fatalf("found %d dips, want 2: %+v", len(dips), dips)
	}
}

// For well-ordered markers ExtractMulti's template is identical to
// Extract's.
func TestExtractMultiMatchesExtractWhenOrdered(t *testing.T) {
	tp := flatSeries(sec(300), map[[2]time.Duration]float64{
		{0, sec(100)}:        100,
		{sec(100), sec(115)}: 0,
		{sec(115), sec(125)}: 50,
		{sec(125), sec(200)}: 75,
		{sec(200), sec(220)}: 85,
		{sec(220), sec(300)}: 100,
	})
	m := Markers{Fault: sec(100), Detect: sec(115), Stable1: sec(125), Recover: sec(200), Stable2: sec(220), End: sec(300)}
	want, err := Extract("node-crash", tp, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, dips, err := ExtractMulti("node-crash", tp, m, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("templates differ:\n got %v\nwant %v", got, want)
	}
	if len(dips) != 1 {
		t.Fatalf("found %d dips, want 1: %+v", len(dips), dips)
	}
}
