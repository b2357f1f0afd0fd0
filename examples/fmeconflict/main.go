// fmeconflict demonstrates the paper's §4.4 problem and §4.5 solution.
//
// First it runs the MQ configuration (membership + queue monitoring,
// separate COTS subsystems) against an application hang: queue monitoring
// keeps declaring the hung peer failed while the membership service —
// whose daemon on that node is perfectly healthy — keeps adding it back.
// The event log shows the node flapping in and out of the cooperation
// set, and every re-admission routes another slice of requests into the
// hang.
//
// Then it runs the same fault against the FME configuration: the FME
// daemon's HTTP probe times out while the disk probe passes, so it
// translates the hang into a crash-restart. Both subsystems observe the
// same crash, their views converge, and the flapping disappears.
//
// Run: go run ./examples/fmeconflict
package main

import (
	"fmt"
	"time"

	"press"
	"press/internal/metrics"
)

func run(v press.Version) (flaps int, lost float64, log []metrics.Event, ep press.Episode) {
	c := press.New(press.WithVersion(v), press.WithOptions(press.FastOptions(3)))
	ep, err := c.RunEpisode(press.AppHang, 2, press.FastSchedule())
	if err != nil {
		panic(err)
	}
	// Count exclusion/inclusion flaps of node 2 while the hang is active.
	for _, e := range ep.Log.Query().Node(2).Between(ep.Markers.Fault, ep.Markers.Recover+1).Events() {
		switch e.Kind {
		case metrics.KExclude, metrics.KInclude, metrics.KQMonFail, metrics.KFMEAction:
			log = append(log, e)
			if e.Kind == metrics.KInclude {
				flaps++
			}
		}
	}
	for s := 0; s < 7; s++ {
		lost += ep.Tpl.Durations[s].Seconds() * (ep.Normal - ep.Tpl.Throughputs[s])
	}
	return flaps, lost, log, ep
}

func main() {
	fmt.Println("== MQ: membership + queue monitoring, no fault model enforcement ==")
	fmt.Println("injecting an application hang on node 2 ...")
	flaps, lost, log, _ := run(press.MQ)
	for _, e := range log {
		fmt.Println("  " + e.String())
	}
	fmt.Printf("re-admissions of the hung node while hung: %d\n", flaps)
	fmt.Printf("work lost across the episode: %.0f requests\n\n", lost)

	fmt.Println("== FME: the same fault, with fault model enforcement ==")
	flapsF, lostF, logF, epF := run(press.FME)
	for _, e := range logF {
		fmt.Println("  " + e.String())
	}
	fmt.Printf("re-admissions while hung: %d\n", flapsF)
	fmt.Printf("work lost across the episode: %.0f requests\n\n", lostF)

	fmt.Printf("FME translated the hang at t=%.0fs; the restarted process rejoined cleanly.\n",
		epF.Markers.Detect.Seconds())
	if lostF < lost {
		fmt.Printf("FME cut the episode's lost work by %.0f%%.\n", 100*(1-lostF/lost))
	}
	_ = time.Second
}
