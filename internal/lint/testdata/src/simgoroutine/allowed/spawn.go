// Package allowed is a true-negative go-statement fixture: it is loaded
// under the paths of packages outside the simulated world (the commands,
// the examples, internal/livenet), which own their goroutines.
package allowed

func Background(work func()) {
	go work()
}
