// Package clean is a true-negative fixture for eager formatting:
// emission helpers that never build strings eagerly, plus calls whose
// names merely resemble Emit.
package clean

import "fmt"

type Log struct{}

func (l *Log) Emit(detail string) {}

func emit(s string) {} // lower-case local helper: not the Emit family

func ok(l *Log, n int) {
	l.Emit("constant detail")
	emit(fmt.Sprintf("human output %d", n)) // not an Emit-family callee
}
