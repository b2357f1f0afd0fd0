package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"press"
	"press/internal/chaos"
)

// forkProfile is reproduce -bench's warm-fork profile: a long warm ramp
// and short fault horizons, the shape forking exists for.
func forkProfile(seed int64, seeds int) (press.Options, press.ChaosCampaignConfig) {
	o := press.FastOptions(seed)
	o.Rate = 100
	o.Warmup = 10 * time.Minute
	cfg := press.ChaosCampaignConfig{
		Seeds: make([]int64, seeds),
		Gen: press.ChaosGenConfig{
			Horizon:   time.Minute,
			MinActive: 15 * time.Second,
			MaxActive: 40 * time.Second,
			MaxFaults: 6,
		},
		Run: press.ChaosRunConfig{
			Settle:       10 * time.Second,
			DrainGrace:   45 * time.Second,
			ResetLimit:   60 * time.Second,
			FinalObserve: 15 * time.Second,
		},
	}
	for i := range cfg.Seeds {
		cfg.Seeds[i] = seed + int64(i)
	}
	return o, cfg
}

// forkOut is what one forked campaign produced.
type forkOut struct {
	ops, failed int
	fingerprint string
	avail       float64 // mean availability over the seeds that ran
	servedRPS   float64 // requests served per simulated second, all seeds
	offered     uint64
	succeeded   uint64
	violating   int
	resets      int
	logEvents   int
	summary     press.ChaosCampaignSummary
}

// forkRepeat forks every seed from the warm snapshot on the serial
// default engine with its memos dropped, as reproduce -chaos does.
func forkRepeat(rec *recorder, parent int, snap *press.Snapshot, cfg press.ChaosCampaignConfig) forkOut {
	out := forkOut{ops: len(cfg.Seeds)}
	press.SetGlobalWorkers(1)
	press.ResetGlobalCaches()
	var err error
	rec.doSim(parent, "chaos.RunCampaignFromSnapshot", "chaos", func() {
		out.summary, err = press.RunChaosCampaignFromSnapshot(snap, cfg)
	})
	if err != nil {
		out.failed = out.ops
		out.fingerprint = "error " + err.Error()
		return out
	}
	h := sha256.New()
	fmt.Fprintln(h, snap.Hash())
	var simSeconds float64
	ran := 0
	for _, oc := range out.summary.Outcomes {
		if oc.Err != nil {
			// An invariant violation is a finding of the campaign; only a
			// seed that could not be played is a failed operation.
			out.failed++
			fmt.Fprintf(h, "%d error %v\n", oc.Seed, oc.Err)
			continue
		}
		r := oc.Result
		ran++
		out.avail += r.Availability
		out.offered += r.Offered
		out.succeeded += r.Succeeded
		simSeconds += (r.End - r.Start).Seconds()
		out.resets += r.Resets
		out.logEvents += r.Log.Len()
		if len(oc.Violations) > 0 {
			out.violating++
		}
		fmt.Fprintf(h, "%d %v %d %d %d %d %v\n", oc.Seed, r.Availability, r.Offered, r.Succeeded, r.Failed, r.Log.Len(), oc.Violations)
	}
	if ran > 0 {
		out.avail /= float64(ran)
		out.servedRPS = float64(out.succeeded) / simSeconds
	}
	out.fingerprint = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return out
}

func runForkChaos(cfg runConfig) *result {
	m := newMeter(cfg)
	seeds, setups := 128, 9
	if cfg.Smoke {
		seeds, setups = 8, 1
	}
	o, camp := forkProfile(cfg.Seed, seeds)

	// Set-up is the warm ramp and the snapshot, taken several times over
	// because it is a tenth of a second.
	var snap *press.Snapshot
	m.sampleYard()
	t0 := time.Now()
	for i := 0; i < setups; i++ {
		press.ResetGlobalCaches()
		var err error
		m.rec.doSim(0, "chaos.WarmSnapshot", "chaos", func() {
			snap, err = press.WarmChaosSnapshot(press.COOP, o, camp.Run)
		})
		if err != nil {
			m.res.fail(seeds, "warm snapshot: %v", err)
			m.res.Ops = seeds
			return m.res
		}
		m.setupDone(t0)
		t0 = time.Now()
	}

	m.sampleYard()
	var last forkOut
	for m.more() {
		mem0 := readMem()
		m.repeat(func() (int, int, string) {
			id := m.rec.start(0, "forkchaos.repeat", "pressbench", false)
			last = forkRepeat(m.rec, id, snap, camp)
			m.rec.end(id)
			return last.ops, last.failed, last.fingerprint
		})
		mem1 := readMem()
		if last.failed < last.ops {
			m.res.add("availability", last.avail)
			m.res.add("served_rps", last.servedRPS)
		}
		m.res.add("goruntime.allocs_per_repeat", float64(mem1.mallocs-mem0.mallocs))
		m.res.add("goruntime.num_gc", float64(mem1.numGC-mem0.numGC))
		m.sampleYard()
	}
	if cfg.Trace && last.failed < last.ops {
		forkLayers(m, o, camp, snap, last)
	}
	return m.finish()
}

// forkLayers takes the per-layer numbers of a traced forkchaos run: the
// calls RunChaosCampaignFromSnapshot makes per seed, timed one by one,
// and the snapshot engine on a plain snapshot of the same warm world.
func forkLayers(m *meter, o press.Options, camp press.ChaosCampaignConfig, snap *press.Snapshot, last forkOut) {
	res, rec := m.res, m.rec
	res.add("workload.offered", float64(last.offered))
	res.add("workload.succeeded", float64(last.succeeded))
	res.add("metrics.log_events", float64(last.logEvents))
	res.add("chaos.violating_seeds", float64(last.violating))
	res.add("chaos.operator_resets", float64(last.resets))
	res.add("snapshot.bytes", float64(snap.Size()))

	genOpts := snap.Opts
	var genUs, checkUs, resumeMs []float64
	invs := press.ChaosInvariants()
	for i, oc := range last.summary.Outcomes {
		genOpts.Seed = oc.Seed
		genUs = append(genUs, us(rec.do(0, "chaos.Generate", "chaos", func(int) {
			press.GenerateChaos(oc.Seed, press.COOP, genOpts, camp.Gen)
		})))
		if oc.Err != nil {
			continue
		}
		r := oc.Result
		checkUs = append(checkUs, us(rec.do(0, "chaos.Check", "chaos", func(int) {
			press.CheckChaos(&r, invs)
		})))
		if i < 16 {
			resumeMs = append(resumeMs, ms(rec.doSim(0, "chaos.ResumeUncached", "chaos", func() {
				if _, err := chaos.ResumeUncached(snap, oc.Schedule, camp.Run); err != nil {
					res.fail(0, "resume seed %d: %v", oc.Seed, err)
				}
			})))
		}
	}
	res.add("chaos.generate_us", median(genUs))
	res.add("chaos.check_us", median(checkUs))
	res.add("chaos.resume_ms_p50", median(resumeMs))

	// The chaos snapshot carries the runner's own state behind the world
	// stream, so Take, Load and Restore are timed on a plain snapshot of
	// a world warmed the same way.
	dep := press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
	dep.Gen.Start()
	rec.doSim(0, "sim.RunFor/warm", "sim", func() { dep.Sim.RunFor(o.Warmup + camp.Run.Settle) })
	var plain *press.Snapshot
	var takeMs, loadMs, restoreMs []float64
	var fork *press.Deployment
	for i := 0; i < 5; i++ {
		var err error
		takeMs = append(takeMs, ms(rec.do(0, "snapshot.Take", "snapshot", func(int) {
			plain, err = press.TakeSnapshot(dep)
		})))
		if err != nil {
			res.fail(0, "snapshot take: %v", err)
			return
		}
		loadMs = append(loadMs, ms(rec.do(0, "snapshot.Load", "snapshot", func(int) {
			_, err = press.LoadSnapshot(plain.Bytes())
		})))
		if err != nil {
			res.fail(0, "snapshot load: %v", err)
			return
		}
		restoreMs = append(restoreMs, ms(rec.do(0, "snapshot.Restore", "snapshot", func(int) {
			fork, err = press.RestoreSnapshot(plain)
		})))
		if err != nil {
			res.fail(0, "snapshot restore: %v", err)
			return
		}
	}
	res.add("snapshot.take_ms", median(takeMs))
	res.add("snapshot.load_ms", median(loadMs))
	res.add("snapshot.restore_ms", median(restoreMs))

	// Census: one fault-free simulated minute on a restored fork.
	base := baseOf(fork)
	rec.doSim(0, "sim.RunFor/census", "sim", func() { fork.Sim.RunFor(time.Minute) })
	censusKernel(res, fork, base)
	censusServers(res, fork)
	heap := liveHeapMB()
	runtime.KeepAlive(fork)
	runtime.KeepAlive(dep)
	runtime.KeepAlive(snap)
	res.add("goruntime.live_heap_mb", heap)

	// What forking saves: 16 seeds cold (every seed builds and warms its
	// own world) over the same 16 forked, both serial.
	small := camp
	small.Seeds = camp.Seeds[:min(16, len(camp.Seeds)/4)]
	press.ResetGlobalCaches()
	cold := rec.doSim(0, "chaos.RunCampaign/cold", "chaos", func() { press.RunChaosCampaign(press.COOP, o, small) })
	press.ResetGlobalCaches()
	warm := rec.doSim(0, "chaos.RunCampaignFromSnapshot/16", "chaos", func() {
		if _, err := press.RunChaosCampaignFromSnapshot(snap, small); err != nil {
			res.fail(0, "fork speedup: %v", err)
		}
	})
	res.add("snapshot.fork_speedup", cold.Seconds()/warm.Seconds())
}
