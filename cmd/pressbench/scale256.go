package main

import (
	"fmt"
	"runtime"
	"time"

	"press"
	"press/internal/faults"
)

// stormOut is what one scale256 storm window produced.
type stormOut struct {
	events      uint64
	highWater   int
	avail       float64
	servedRPS   float64
	latencyMs   float64
	fingerprint string
	err         error
}

// storm is exactly the window of TestScale256EventCountInvariant: a node
// crash, a flapping backplane link and an application hang held for a
// simulated minute, all repaired, and a minute of reintegration.
func storm(rec *recorder, parent int, dep *press.Deployment, base counterBase) stormOut {
	var out stormOut
	crash, err := dep.Injector.Inject(press.NodeCrash, 1)
	if err != nil {
		return stormOut{err: err}
	}
	flap, err := dep.Injector.InjectFlap(press.LinkDown, 2, faults.Flap{On: 15 * time.Second, Off: 5 * time.Second})
	if err != nil {
		return stormOut{err: err}
	}
	hang, err := dep.Injector.Inject(press.AppHang, 3)
	if err != nil {
		return stormOut{err: err}
	}
	rec.doSim(parent, "sim.RunFor/faulted", "sim", func() { dep.Sim.RunFor(60 * time.Second) })
	if err := crash.Repair(); err != nil {
		return stormOut{err: err}
	}
	if err := flap.Repair(); err != nil {
		return stormOut{err: err}
	}
	_ = hang.Repair() // a restart may already have cleared the hang: a benign no-op
	rec.doSim(parent, "sim.RunFor/repaired", "sim", func() { dep.Sim.RunFor(60 * time.Second) })

	now := dep.Sim.Now()
	out.events = dep.Sim.EventsFired() - base.events
	out.highWater = dep.Sim.MaxQueued()
	out.avail = dep.Rec.Availability(base.at, now)
	out.servedRPS = dep.Rec.MeanThroughput(base.at, now)
	out.latencyMs = float64(dep.Rec.MeanLatency()) / float64(time.Millisecond)
	out.fingerprint = fmt.Sprintf("events=%d hw=%d offered=%d ok=%d failed=%d avail=%v lat=%v",
		out.events, out.highWater, dep.Rec.Offered, dep.Rec.Succeeded, dep.Rec.Failed, out.avail, dep.Rec.MeanLatency())
	return out
}

func runScale256(cfg runConfig) *result {
	m := newMeter(cfg)
	nodes := 256
	if cfg.Smoke {
		nodes = 16
	}
	o := press.FastOptions(cfg.Seed)
	o.Nodes = nodes
	o.Protocol = press.Scalable
	o.Rate = 40 * float64(nodes)

	var buildMs []float64
	for m.more() {
		// A fresh world per repeat, from a collected heap: the previous
		// repeat's 180 MB of garbage would otherwise decide when the
		// collector runs inside the timed window. It is also the one
		// moment the heap is small enough to time the yardstick on.
		runtime.GC()
		m.sampleYard()
		t0 := time.Now()
		var dep *press.Deployment
		buildMs = append(buildMs, ms(m.rec.do(0, "harness.Build", "harness", func(int) {
			dep = press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
		})))
		dep.Gen.Start()
		m.rec.doSim(0, "sim.RunFor/settle", "sim", func() { dep.Sim.RunFor(20 * time.Second) })
		m.setupDone(t0)

		base := baseOf(dep)
		mem0 := readMem()
		var out stormOut
		wall := m.repeat(func() (int, int, string) {
			id := m.rec.start(0, "scale256.storm", "pressbench", false)
			out = storm(m.rec, id, dep, base)
			m.rec.end(id)
			if out.err != nil {
				m.res.Errors = append(m.res.Errors, out.err.Error())
				return 1, 1, "error"
			}
			return 1, 0, out.fingerprint
		})
		mem1 := readMem()
		if out.err == nil {
			m.res.add("availability", out.avail)
			m.res.add("served_rps", out.servedRPS)
			if cfg.Trace {
				scaleLayers(m, dep, base, out, wall, mem1.mallocs-mem0.mallocs, mem1.numGC-mem0.numGC, nodes)
			}
		}
	}
	runtime.GC()
	m.sampleYard()
	if cfg.Trace {
		m.res.add("harness.build_ms", median(buildMs))
		shares := m.shares()
		wallNs := median(m.profiled) * 1e9
		events := median(m.res.Samples["sim.events_fired"])
		for _, l := range []string{"sim", "simnet", "machine", "server", "workload", "goruntime"} {
			if events > 0 {
				m.res.add(l+".self_ns_per_event", shares[l]*wallNs/events)
			}
		}
		wideRigs(m.res, m.rec, cfg.rigDiv())
	}
	return m.finish()
}

// scaleLayers records the per-layer numbers of one storm window, read at
// the window's own boundaries.
func scaleLayers(m *meter, dep *press.Deployment, base counterBase, out stormOut, wall float64, mallocs uint64, numGC uint32, nodes int) {
	res := m.res
	census(res, dep, base)
	res.add("sim.events_per_s", float64(out.events)/wall)
	res.add("workload.latency_mean_ms", out.latencyMs)
	res.add("metrics.log_events", float64(dep.Log.Len()))
	res.add("goruntime.allocs_per_event", float64(mallocs)/float64(out.events))
	res.add("goruntime.allocs_per_repeat", float64(mallocs))
	res.add("goruntime.num_gc", float64(numGC))
	heap := liveHeapMB()
	runtime.KeepAlive(dep)
	res.add("goruntime.live_heap_mb", heap)
	res.add("harness.heap_kb_per_node", heap*1024/float64(nodes))
}
