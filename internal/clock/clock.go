// Package clock abstracts time so that every protocol component in this
// repository (the PRESS server, the membership service, queue monitoring,
// FME, the front-end) can run unchanged on either the discrete-event
// simulator (package sim) or real wall-clock time (package livenet).
//
// Instants are expressed as a time.Duration offset from an arbitrary epoch
// (simulation start, or process start in live mode). Protocol code only
// ever compares instants and schedules relative timers, so an offset-based
// representation is sufficient and keeps the simulator allocation-free.
package clock

import (
	"sync"
	"time"
)

// Timer is a handle to a pending callback scheduled with AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing. Stopping an already-fired or already-stopped
	// timer is a harmless no-op that returns false.
	Stop() bool
}

// Ticker is a handle to a periodic callback scheduled with Every.
type Ticker interface {
	// Stop ends the periodic loop. It reports whether the ticker was
	// still active. Calling Stop from inside the ticker's own callback
	// suppresses the rearm that would otherwise follow; stopping an
	// already-stopped ticker is a harmless no-op that returns false.
	Stop() bool

	// Reschedule makes the ticker fire next d from now, after which it
	// resumes its regular period. Called from inside the ticker's own
	// callback it replaces the automatic rearm, letting the callback
	// choose its next interval; called on a stopped ticker it revives it.
	Reschedule(d time.Duration)
}

// Clock supplies the current time, one-shot timers, and periodic tickers.
//
// Implementations guarantee that callbacks scheduled by AfterFunc fire in
// non-decreasing time order. The discrete-event implementation additionally
// guarantees full determinism: equal deadlines fire in scheduling order.
type Clock interface {
	// Now returns the current instant as an offset from the clock's epoch.
	Now() time.Duration

	// AfterFunc schedules fn to be called once, d from now. A non-positive
	// d fires as soon as possible (but never synchronously inside the
	// AfterFunc call itself).
	AfterFunc(d time.Duration, fn func()) Timer

	// Every schedules fn to be called every d, first firing d from now.
	// The next deadline is set after fn returns (rearm-at-end), so a
	// slow callback cannot stack invocations and fn may call the
	// ticker's Stop or Reschedule to end or retime the loop.
	Every(d time.Duration, fn func()) Ticker
}

// FuncTicker adapts any Clock's one-shot AfterFunc into the periodic
// Ticker contract: fire, run fn, rearm after fn returns. livenet's
// per-process wall clock uses it so the rearm happens on the
// implementation's own dispatch path — after mailbox delivery, not at
// schedule time — exactly matching the hand-rolled
// rearm-at-end-of-callback idiom it replaces. Simulated processes tick
// through machine.procTicker instead, which keeps the same contract and
// can be snapshotted.
type FuncTicker struct {
	mu      sync.Mutex
	c       Clock
	period  time.Duration
	fn      func()
	fireFn  func() // t.fire, bound once so rearms don't allocate
	timer   Timer  // every access is under mu
	firing  bool
	rearmed bool
	stopped bool
}

// NewFuncTicker starts a periodic fn on c, first firing d from now.
func NewFuncTicker(c Clock, d time.Duration, fn func()) *FuncTicker {
	if fn == nil {
		panic("clock: nil ticker function")
	}
	if d <= 0 {
		panic("clock: ticker period must be positive")
	}
	t := &FuncTicker{c: c, period: d, fn: fn}
	t.fireFn = t.fire
	t.timer = c.AfterFunc(d, t.fireFn)
	return t
}

func (t *FuncTicker) fire() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.firing, t.rearmed = true, false
	t.mu.Unlock()
	t.fn()
	t.mu.Lock()
	t.firing = false
	if !t.stopped && !t.rearmed {
		t.timer = t.c.AfterFunc(t.period, t.fireFn)
	}
	t.mu.Unlock()
}

// Stop ends the loop; see the Ticker contract.
func (t *FuncTicker) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	active := t.firing
	if t.timer != nil && t.timer.Stop() {
		active = true
	}
	t.timer = nil
	return active
}

// Reschedule retimes (or revives) the loop; see the Ticker contract.
func (t *FuncTicker) Reschedule(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = false
	if t.firing {
		t.rearmed = true
	}
	if t.timer != nil {
		t.timer.Stop()
	}
	t.timer = t.c.AfterFunc(d, t.fireFn)
}

var _ Ticker = (*FuncTicker)(nil)
