// Package sim is a forbidden-callee fixture for the wall clock: a
// sim-facing package that touches the real clock in every forbidden way,
// plus the uses that observe no clock.
package sim

import "time"

func timestamps() time.Time {
	t := time.Now() // want `time.Now reads or waits on the wall clock`
	return t
}

func waits(ch chan int) {
	time.Sleep(time.Second) // want `time.Sleep reads or waits on the wall clock`
	select {
	case <-time.After(time.Second): // want `time.After reads or waits on the wall clock`
	case <-ch:
	}
	time.AfterFunc(time.Second, func() {}) // want `time.AfterFunc reads or waits on the wall clock`
	<-time.Tick(time.Second)               // want `time.Tick reads or waits on the wall clock`
	_ = time.NewTicker(time.Second)        // want `time.NewTicker reads or waits on the wall clock`
	_ = time.NewTimer(time.Second)         // want `time.NewTimer reads or waits on the wall clock`
}

func elapsed(epoch time.Time) (time.Duration, time.Duration) {
	a := time.Since(epoch) // want `time.Since reads or waits on the wall clock`
	b := time.Until(epoch) // want `time.Until reads or waits on the wall clock`
	return a, b
}

// Naming the function without calling it hands the wall clock on.
func handedOn() func() time.Time {
	return time.Now // want `time.Now reads or waits on the wall clock`
}

// Pure time values and arithmetic are fine: no wall clock is observed.
func pure() time.Duration {
	d := 3 * time.Second
	t := time.Date(2003, time.November, 15, 0, 0, 0, 0, time.UTC)
	return d + t.Sub(t)
}

// A periodic loop comes from the simulated clock (clock.Clock.Every),
// never a hand-rolled wall-clock rearm chain: each link below both waits
// on real time and re-waits forever.
func periodicRearmChain() {
	var rearm func()
	rearm = func() {
		time.AfterFunc(time.Second, rearm) // want `time.AfterFunc reads or waits on the wall clock`
	}
	rearm()
}

// The wall-clock ticker loop is equally forbidden; its methods are not
// flagged again.
func periodicTickerLoop(stop chan struct{}) {
	tk := time.NewTicker(time.Second) // want `time.NewTicker reads or waits on the wall clock`
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
		case <-stop:
			return
		}
	}
}
