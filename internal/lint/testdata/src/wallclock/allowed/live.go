// Package allowed is a true-negative fixture for the wall-clock ban: it
// is loaded under the paths of packages that exist to touch real time
// (internal/clock, internal/livenet, the commands, the examples), so
// nothing in it is flagged.
package allowed

import "time"

func RealNow() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}

func Elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}
