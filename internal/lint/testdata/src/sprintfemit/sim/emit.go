// Package sim is a forbidden-callee fixture for eager formatting: a
// fmt.Sprint* anywhere in an Emit-family call's arguments is flagged;
// constant details, the lazy integer forms, and Sprintf outside an Emit
// argument are not.
package sim

import (
	"fmt"
	"time"
)

type Log struct{}

func (l *Log) Emit(at time.Duration, source, kind string, node int, detail string) {}

func (l *Log) EmitInt(at time.Duration, src, kind int, node int, format string, v int64) {}

func eager(l *Log, n int) {
	l.Emit(0, "press", "detect", n, fmt.Sprintf("node %d", n))    // want `fmt.Sprintf formats on every emission`
	l.Emit(0, "press", "detect", n, fmt.Sprint(n))                // want `fmt.Sprint formats on every emission`
	l.Emit(0, "press", "detect", n, fmt.Sprintln("q", n))         // want `fmt.Sprintln formats on every emission`
	l.Emit(0, "press", "detect", n, prefix(fmt.Sprintf("%d", n))) // want `fmt.Sprintf formats on every emission`
	l.EmitInt(0, 1, 2, n, fmt.Sprintf("node %%d/%d", n), 9)       // want `fmt.Sprintf formats on every emission`
}

func prefix(s string) string { return "p:" + s }

func lazy(l *Log, n int) {
	// The sanctioned patterns: a constant detail, or the lazy integer
	// forms that defer formatting to render time.
	l.Emit(0, "press", "detect", n, "heartbeat loss")
	l.EmitInt(0, 1, 2, n, "queue %d", int64(n))
}

func sprintfElsewhere(n int) string {
	// Sprintf outside an Emit argument list is not banned.
	return fmt.Sprintf("node %d", n)
}
