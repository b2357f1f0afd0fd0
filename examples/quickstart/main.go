// Quickstart: build a 4-node cooperative PRESS cluster in the simulator,
// drive it at 90% of saturation, crash a node, and watch detection,
// exclusion, and reintegration — then fit the paper's 7-stage template to
// the episode and compute the expected availability contribution.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"press"
)

func main() {
	o := press.FastOptions(7)
	coop := press.New(press.WithVersion(press.COOP), press.WithOptions(o))
	indep := press.New(press.WithVersion(press.INDEP), press.WithOptions(o))

	// Measure the cluster's saturation and report the cooperation factor.
	coopSat := coop.Saturation()
	indepSat := indep.Saturation()
	fmt.Printf("saturation: COOP %.0f req/s, INDEP %.0f req/s — cooperation buys %.1fx\n\n",
		coopSat, indepSat, coopSat/indepSat)

	// Run one node-crash fault-injection episode.
	fmt.Println("injecting a node crash into COOP at 90% load ...")
	ep, err := coop.RunEpisode(press.NodeCrash, 1, press.FastSchedule())
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nfault injected at t=%.0fs, detected %.1fs later, repaired %.0fs after injection\n",
		ep.Markers.Fault.Seconds(),
		(ep.Markers.Detect - ep.Markers.Fault).Seconds(),
		(ep.Markers.Recover - ep.Markers.Fault).Seconds())
	fmt.Printf("operator reset needed: %v (crashes are inside base PRESS's fault model)\n\n", ep.Tpl.NeedsReset)

	fmt.Println("the fitted 7-stage template:")
	fmt.Println(ep.Tpl)

	// Feed the template into the phase-2 model with the paper's expected
	// fault load for node crashes (MTTF 2 weeks, MTTR 3 minutes, 4 nodes).
	var load press.FaultLoad
	for _, spec := range press.Table1(4, 2, false) {
		if spec.Type == press.NodeCrash {
			load = press.FaultLoad{Spec: spec, Tpl: ep.Tpl}
		}
	}
	res, err := press.ModelAvailability(ep.Normal, ep.Offered, []press.FaultLoad{load}, press.DefaultModelEnv())
	if err != nil {
		panic(err)
	}
	fmt.Printf("expected impact of node crashes alone: %.4f%% unavailability (availability %.5f)\n",
		res.Unavailability, res.AA)

	// Show the interesting part of the event log.
	fmt.Println("\nevents around the fault:")
	for _, e := range ep.Log.Query().Between(ep.Markers.Fault-time.Second, ep.Markers.Recover+30*time.Second+1).Events() {
		fmt.Println("  " + e.String())
	}
}
