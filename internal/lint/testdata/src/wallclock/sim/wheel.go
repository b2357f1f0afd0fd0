// Timer-wheel shapes for the wall-clock ban: a wheel's cursor advances
// from the simulated deadline the kernel hands in, never from the
// machine clock; tying cascades to wall time would make pop order depend
// on host scheduling.

package sim

import "time"

type bucketWheel struct {
	granule time.Duration
	cursor  int64
}

// advanceTo is the disciplined form: pure arithmetic on the simulated
// now, no clock observed.
func (w *bucketWheel) advanceTo(now time.Duration) int {
	target := int64(now / w.granule)
	steps := int(target - w.cursor)
	w.cursor = target
	return steps
}

// advanceWall reads the host clock to place the cursor.
func (w *bucketWheel) advanceWall() int {
	now := time.Now() // want `time.Now reads or waits on the wall clock`
	return w.advanceTo(time.Duration(now.UnixNano()))
}

// rearmCascade schedules the next cascade on a host timer instead of
// the kernel's queue.
func (w *bucketWheel) rearmCascade() {
	time.AfterFunc(w.granule, func() { w.rearmCascade() }) // want `time.AfterFunc reads or waits on the wall clock`
}
