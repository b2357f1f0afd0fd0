// Package sim is a go-statement fixture, loaded as the harness package:
// a go statement is flagged everywhere but in the engine's pool
// functions.
package sim

import "sync"

func spawns(work func()) {
	go work() // want `a go statement outside the engine's worker pools`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `a go statement outside the engine's worker pools`
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// A launch outside any function is outside the pools too.
var launch = func(work func()) {
	go work() // want `a go statement outside the engine's worker pools`
}

// runCampaign is one of the harness's pool functions: its workers,
// literals included, may be goroutines.
func runCampaign(jobs []func()) {
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job()
		}()
	}
	wg.Wait()
}

// Deferred and synchronous calls are not goroutines: no findings.
func synchronous(work func()) {
	defer work()
	work()
}
