package harness

import (
	"fmt"
	"time"
)

// Saturation measures a version's maximum sustained throughput (req/s) by
// driving it far past capacity and measuring what it serves. Results are
// memoized per (version, topology, cache, trace) with singleflight
// semantics — the simulator is deterministic, so one measurement is
// definitive, and concurrent requests for the same topology (e.g. a
// campaign's episodes fanning out in parallel) share one probe.
//
// The paper loads each configuration at 90% of its 4-node saturation
// (§5); Build uses this measurement to resolve Options.Rate == 0.
func (e *Engine) Saturation(v Version, o Options) float64 {
	o = o.withDefaults()
	// Capacity depends only on the topology, not on which detectors are
	// wired in: key the memo by the capacity-relevant traits so e.g.
	// FE-X, MEM, MQ and FME share one probe.
	key := keyForTraits(versionTraits(v), o)
	sat, _ := e.saturations.do(key, func() (float64, error) {
		run := o
		// Drive well past any plausible capacity; admission control keeps the
		// servers working at their service rate. The ramp must be gentle: a
		// cold cache under instant overload swamps the disks, blocks the main
		// threads, and splinters the cooperative cluster before it ever warms
		// — the paper's 5-minute warm-up exists for exactly this reason.
		run.Rate = 120 * float64(serverCount(v, o))
		run.Warmup = 5 * time.Minute
		c := e.Build(v, run)
		c.Gen.Start()
		c.Sim.RunFor(run.Warmup + 180*time.Second)
		return c.Rec.MeanThroughput(run.Warmup+30*time.Second, c.Sim.Now()), nil
	})
	return sat
}

// keyForTraits derives the saturation memo key from the capacity-relevant
// configuration.
func keyForTraits(tr traits, o Options) string {
	// The protocol suite is capacity-relevant: the sharded directory
	// trades broadcast announces for per-shard relays.
	return fmt.Sprintf("coop=%v/fe=%v/extra=%v/%s/%d/%d/%d/%d",
		tr.cooperative, tr.fe, tr.extraNode, o.Protocol, o.Nodes, o.CacheBytes, o.Docs, o.Seed)
}
