package trace

import (
	"math"
	"testing"
	"time"
)

func TestModulationZeroValueInactive(t *testing.T) {
	var m Modulation
	if m.Active() {
		t.Fatal("zero modulation reports active")
	}
	for _, el := range []time.Duration{0, time.Second, time.Hour} {
		if f := m.Factor(el); f != 1 {
			t.Fatalf("Factor(%v) = %v on zero modulation, want 1", el, f)
		}
	}
}

func TestModulationDiurnal(t *testing.T) {
	m := Modulation{DiurnalAmp: 0.4, DiurnalPeriod: 4 * time.Minute}
	if !m.Active() {
		t.Fatal("diurnal modulation reports inactive")
	}
	// Phase 0: mean at t=0, peak at a quarter period, trough at three
	// quarters.
	if f := m.Factor(0); math.Abs(f-1) > 1e-9 {
		t.Fatalf("Factor(0) = %v, want 1", f)
	}
	if f := m.Factor(time.Minute); math.Abs(f-1.4) > 1e-9 {
		t.Fatalf("Factor(quarter) = %v, want 1.4", f)
	}
	if f := m.Factor(3 * time.Minute); math.Abs(f-0.6) > 1e-9 {
		t.Fatalf("Factor(3/4) = %v, want 0.6", f)
	}
	// Periodicity.
	if a, b := m.Factor(30*time.Second), m.Factor(4*time.Minute+30*time.Second); math.Abs(a-b) > 1e-9 {
		t.Fatalf("period broken: %v vs %v", a, b)
	}
	// Amplitude clamps below 1 so the rate stays positive.
	wild := Modulation{DiurnalAmp: 5, DiurnalPeriod: time.Minute}
	if f := wild.Factor(45 * time.Second); f <= 0 {
		t.Fatalf("trough factor %v not positive under clamped amplitude", f)
	}
}

func TestModulationFlashCrowd(t *testing.T) {
	m := Modulation{
		FlashBoost: 3, FlashAt: time.Minute,
		FlashRamp: 20 * time.Second, FlashHold: 30 * time.Second, FlashDecay: 10 * time.Second,
	}
	if !m.Active() {
		t.Fatal("flash modulation reports inactive")
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{time.Minute, 1},                  // onset
		{time.Minute + 10*time.Second, 2}, // mid-ramp
		{time.Minute + 20*time.Second, 3}, // peak
		{time.Minute + 40*time.Second, 3}, // holding
		{time.Minute + 55*time.Second, 2}, // mid-decay
		{time.Minute + 70*time.Second, 1}, // done
		{2 * time.Hour, 1},                // long after
	}
	for _, tc := range cases {
		if f := m.Factor(tc.at); math.Abs(f-tc.want) > 1e-9 {
			t.Errorf("Factor(%v) = %v, want %v", tc.at, f, tc.want)
		}
	}
	// Zero ramp/decay are steps, not divisions by zero.
	step := Modulation{FlashBoost: 2, FlashAt: time.Second, FlashHold: time.Second}
	if f := step.Factor(time.Second + time.Millisecond); f != 2 {
		t.Fatalf("step-edge factor = %v, want 2", f)
	}
}

func TestModulationComposesAndFloors(t *testing.T) {
	m := Modulation{
		DiurnalAmp: 0.5, DiurnalPeriod: 2 * time.Minute,
		FlashBoost: 2, FlashAt: 30 * time.Second, FlashHold: time.Minute,
	}
	// At the diurnal peak inside the flash hold the factors multiply.
	if f := m.Factor(30 * time.Second); math.Abs(f-3) > 1e-9 { // (1+0.5)*2
		t.Fatalf("composed factor = %v, want 3", f)
	}
	// The floor keeps every composition positive.
	for el := time.Duration(0); el < 10*time.Minute; el += time.Second {
		if f := m.Factor(el); f < 0.05 {
			t.Fatalf("Factor(%v) = %v below the 0.05 floor", el, f)
		}
	}
}
