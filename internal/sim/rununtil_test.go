package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// peekMin is how RunUntil used to look at the next deadline before each
// Step, which then ran ensureFront a second time to pop. The fused loop
// must be indistinguishable from it.
func (s *Sim) peekMin() (time.Duration, bool) {
	if s.npend == 0 {
		return 0, false
	}
	s.ensureFront()
	return s.front().at, true
}

func runUntilByStep(s *Sim, t time.Duration) {
	s.halted = false
	for !s.halted {
		at, ok := s.peekMin()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
}

type firedAt struct {
	at  time.Duration
	seq uint64
	id  int
}

// TestQuickRunUntilMatchesPeekStepLoop drives two kernels through the
// wheel property test's kind of script — delays in every tier, stops,
// in-callback respawns — plus callbacks that Halt, one advanced by
// RunUntil and one by the peek-then-Step loop, and demands the same
// (at, seq) fire sequence, clock, pending count and counters after every
// phase.
func TestQuickRunUntilMatchesPeekStepLoop(t *testing.T) {
	type world struct {
		s       *Sim
		fired   []firedAt
		handles []Timer
		nextID  int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fused, ref := &world{s: New(seed)}, &world{s: New(seed)}

		var schedule func(w *world, d time.Duration)
		schedule = func(w *world, d time.Duration) {
			id := w.nextID
			w.nextID++
			seq := w.s.seq // the sequence number After is about to hand out
			h := w.s.After(d, func() {
				w.fired = append(w.fired, firedAt{at: w.s.Now(), seq: seq, id: id})
				if cd, ok := childDelta(id); ok {
					schedule(w, cd)
				}
				if uint64(id)*0x9e3779b97f4a7c15%7 == 0 {
					w.s.Halt()
				}
			})
			w.handles = append(w.handles, h)
		}
		randDelay := func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return time.Duration(rng.Intn(65_000))
			case 1:
				return time.Duration(rng.Intn(16)) * time.Millisecond
			case 2:
				return time.Duration(rng.Intn(4000)) * time.Millisecond
			default:
				return 4*time.Second + time.Duration(rng.Intn(20))*time.Second
			}
		}
		same := func() bool {
			a, b := fused.s, ref.s
			if a.now != b.now || a.npend != b.npend || a.fired != b.fired || a.seq != b.seq || a.halted != b.halted {
				return false
			}
			if len(fused.fired) != len(ref.fired) {
				return false
			}
			for i := range fused.fired {
				if fused.fired[i] != ref.fired[i] {
					return false
				}
			}
			return true
		}

		for p := 0; p < 4+rng.Intn(4); p++ {
			for i := 0; i < 20+rng.Intn(40); i++ {
				d := randDelay()
				schedule(fused, d)
				schedule(ref, d)
			}
			for i := range fused.handles {
				if rng.Intn(4) == 0 && fused.handles[i].Stop() != ref.handles[i].Stop() {
					return false
				}
			}
			// A Halt ends the call early; keep calling, as a driver that
			// halts to look at the world and resumes does.
			until := fused.s.Now() + time.Duration(rng.Intn(3000))*time.Millisecond
			for {
				fused.s.RunUntil(until)
				runUntilByStep(ref.s, until)
				if !same() {
					return false
				}
				if !fused.s.halted {
					break
				}
			}
			if fused.s.Now() != until {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPassed: a key has had its turn once an event at that key would have
// fired — inside a callback, up to the firing event's own key; between
// bare Steps, up to the last one fired; after a completed RunUntil(t),
// every key at or before t; after a RunUntil stopped by Halt, up to the
// halting event; and a restored kernel answers as the one it was captured
// from.
func TestPassed(t *testing.T) {
	type key struct {
		at  time.Duration
		seq uint64
	}
	const ms = time.Millisecond
	// Events at (1ms, 0), (1ms, 1), (2ms, 2); key (1ms, 3) is reserved,
	// so it sorts after both 1 ms events and before the 2 ms one.
	build := func() (*Sim, key) {
		s := New(1)
		s.At(ms, func() {})
		s.At(ms, func() {})
		s.At(2*ms, func() {})
		return s, key{ms, s.Reserve()}
	}
	probes := func(r key) []key {
		return []key{{0, 0}, {ms, 0}, {ms, 1}, r, {ms, 4}, {2 * ms, 2}, {2*ms + 1, 0}}
	}
	check := func(t *testing.T, s *Sim, r key, want []bool) {
		t.Helper()
		for i, k := range probes(r) {
			if got := s.Passed(k.at, k.seq); got != want[i] {
				t.Errorf("Passed(%v, %d) = %v, want %v", k.at, k.seq, got, want[i])
			}
		}
	}

	t.Run("fresh", func(t *testing.T) {
		s, r := build()
		check(t, s, r, []bool{false, false, false, false, false, false, false})
	})
	t.Run("bare Step", func(t *testing.T) {
		s, r := build()
		s.Step()
		check(t, s, r, []bool{true, true, false, false, false, false, false})
		s.Step()
		check(t, s, r, []bool{true, true, true, false, false, false, false})
		s.Step()
		check(t, s, r, []bool{true, true, true, true, true, true, false})
	})
	t.Run("inside a callback", func(t *testing.T) {
		s := New(1)
		var inside []bool
		s.At(ms, func() {})
		s.At(ms, func() {
			for _, k := range []key{{ms, 0}, {ms, 1}, {ms, 2}} {
				inside = append(inside, s.Passed(k.at, k.seq))
			}
		})
		s.Run()
		if want := []bool{true, true, false}; !slices.Equal(inside, want) {
			t.Errorf("inside (1ms, 1): Passed of (1ms, 0..2) = %v, want %v", inside, want)
		}
	})
	t.Run("completed RunUntil", func(t *testing.T) {
		s, r := build()
		s.RunUntil(ms)
		check(t, s, r, []bool{true, true, true, true, true, false, false})
		s.RunUntil(ms + 1) // nothing fires, the clock moves on
		check(t, s, r, []bool{true, true, true, true, true, false, false})
		s.RunUntil(2 * ms)
		check(t, s, r, []bool{true, true, true, true, true, true, false})
	})
	t.Run("RunUntil stopped by Halt", func(t *testing.T) {
		s := New(1)
		s.At(ms, func() { s.Halt() })
		s.At(ms, func() {})
		s.At(2*ms, func() {})
		r := key{ms, s.Reserve()}
		s.RunUntil(2 * ms)
		if s.Now() != ms {
			t.Fatalf("halted at %v, want 1ms", s.Now())
		}
		check(t, s, r, []bool{true, true, false, false, false, false, false})
	})
	t.Run("SetCounters", func(t *testing.T) {
		for _, steps := range []int{0, 1, 2} {
			s, r := build()
			for range steps {
				s.Step()
			}
			want := make([]bool, 0, 7)
			for _, k := range probes(r) {
				want = append(want, s.Passed(k.at, k.seq))
			}
			dst := New(1)
			dst.SetCounters(s.Counters())
			check(t, dst, r, want)
		}
	})
}
