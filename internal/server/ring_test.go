package server

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
)

// nowEnv is a process environment whose clock reads *now and does nothing
// else.
type nowEnv struct {
	cnet.Env
	now time.Duration
}

func (e *nowEnv) Clock() clock.Clock { return nowClock{e} }

type nowClock struct{ e *nowEnv }

func (c nowClock) Now() time.Duration                        { return c.e.now }
func (nowClock) AfterFunc(time.Duration, func()) clock.Timer { panic("nowClock: no timers") }
func (nowClock) Every(time.Duration, func()) clock.Ticker    { panic("nowClock: no tickers") }

// TestQuickRingIncludeMatchesRecompute: over random clusters and random
// sequences of includes, with exclusions between them, the O(1) include
// leaves the same predecessor and successor as recompute over the sorted
// view, and restarts the grace window exactly when the predecessor
// changed.
func TestQuickRingIncludeMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(40)
		env := &nowEnv{}
		s := &Server{cfg: Config{Self: cnet.NodeID(rng.Intn(size))}, env: env, view: make([]bool, size)}
		s.viewAdd(s.cfg.Self)
		fast := ringDetector{s: s, enabled: true, pred: cnet.None, succ: cnet.None}
		ref := fast
		for step := 0; step < 3*size; step++ {
			env.now += time.Millisecond
			n := cnet.NodeID(rng.Intn(size))
			if n == s.cfg.Self {
				continue
			}
			if s.inView(n) {
				if rng.Intn(3) == 0 { // an exclusion recomputes both
					s.viewDel(n)
					s.sortedOK = false
					fast.recompute()
					ref.recompute()
				}
				continue
			}
			s.viewAdd(n)
			s.sortedOK = false
			pred, hb := fast.pred, fast.lastHB
			fast.include(n)
			ref.recompute()
			if fast.pred != ref.pred || fast.succ != ref.succ || fast.lastHB != ref.lastHB {
				t.Logf("self %d of %d, include %d: pred/succ %d/%d, want %d/%d; grace from %v, want %v",
					s.cfg.Self, size, n, fast.pred, fast.succ, ref.pred, ref.succ, fast.lastHB, ref.lastHB)
				return false
			}
			if moved := fast.lastHB != hb; moved != (fast.pred != pred) {
				t.Logf("include %d moved the predecessor %d -> %d but the grace window %v -> %v", n, pred, fast.pred, hb, fast.lastHB)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
