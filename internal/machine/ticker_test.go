package machine

import (
	"slices"
	"testing"
	"time"

	"press/internal/clock"
	"press/internal/sim"
)

// The clock.Ticker contract, held on both implementations: procTicker
// (every simulated process) and clock.FuncTicker (every live one), the
// latter driven on virtual time through a kernel adapter so the cadence
// assertions are exact.

type kernelClock struct{ s *sim.Sim }

func (c kernelClock) Now() time.Duration { return c.s.Now() }
func (c kernelClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return c.s.After(d, fn)
}
func (c kernelClock) Every(d time.Duration, fn func()) clock.Ticker {
	return clock.NewFuncTicker(c, d, fn)
}

func eachTicker(t *testing.T, body func(t *testing.T, s *sim.Sim, c clock.Clock)) {
	t.Run("procTicker", func(t *testing.T) {
		w := newWorld()
		var c clock.Clock
		New(w.sim, w.net, 0, nil, w.log).AddProc("app", func(env *Env) { c = env.Clock() })
		body(t, w.sim, c)
	})
	t.Run("FuncTicker", func(t *testing.T) {
		s := sim.New(1)
		body(t, s, kernelClock{s})
	})
}

func TestEveryFiresAtExactCadence(t *testing.T) {
	eachTicker(t, func(t *testing.T, s *sim.Sim, c clock.Clock) {
		var fires []time.Duration
		tk := c.Every(3*time.Second, func() { fires = append(fires, s.Now()) })
		s.RunUntil(10 * time.Second)
		want := []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second}
		if !slices.Equal(fires, want) {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
		if !tk.Stop() {
			t.Fatal("Stop on an active ticker returned false")
		}
		if tk.Stop() {
			t.Fatal("second Stop returned true")
		}
		s.RunUntil(30 * time.Second)
		if len(fires) != 3 {
			t.Fatal("stopped ticker kept firing")
		}
	})
}

func TestTickerStopInsideCallback(t *testing.T) {
	eachTicker(t, func(t *testing.T, s *sim.Sim, c clock.Clock) {
		count := 0
		var tk clock.Ticker
		tk = c.Every(time.Second, func() {
			count++
			if count == 3 && !tk.Stop() {
				t.Error("Stop from inside the firing tick returned false")
			}
		})
		s.RunUntil(20 * time.Second)
		if count != 3 {
			t.Fatalf("count = %d, want 3 (Stop inside fn must suppress the rearm)", count)
		}
	})
}

func TestTickerRescheduleInsideCallbackSetsNextInterval(t *testing.T) {
	eachTicker(t, func(t *testing.T, s *sim.Sim, c clock.Clock) {
		var fires []time.Duration
		var tk clock.Ticker
		tk = c.Every(2*time.Second, func() {
			fires = append(fires, s.Now())
			if len(fires) == 1 {
				tk.Reschedule(5 * time.Second) // one long gap, then back to 2s
			}
		})
		s.RunUntil(12 * time.Second)
		want := []time.Duration{2 * time.Second, 7 * time.Second, 9 * time.Second, 11 * time.Second}
		if !slices.Equal(fires, want) {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	})
}

func TestTickerRescheduleRevivesStopped(t *testing.T) {
	eachTicker(t, func(t *testing.T, s *sim.Sim, c clock.Clock) {
		count := 0
		tk := c.Every(time.Second, func() { count++ })
		s.RunUntil(2 * time.Second) // 2 fires
		tk.Stop()
		s.RunUntil(5 * time.Second)
		if count != 2 {
			t.Fatalf("count = %d after Stop, want 2", count)
		}
		tk.Reschedule(time.Second)
		s.RunUntil(7 * time.Second) // fires at 6s, 7s
		if count != 4 {
			t.Fatalf("count = %d after Reschedule revival, want 4", count)
		}
	})
}
