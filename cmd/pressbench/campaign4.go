package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"press"
	"press/internal/harness"
	"press/internal/template7"
)

// campaignOut is what one campaign4 repeat produced.
type campaignOut struct {
	ops, failed int
	fingerprint string
	avail       float64            // modelled availability of the last version
	saturation  float64            // saturation throughput of the first version
	unavailPct  map[string]float64 // version -> modelled unavailability, %
	logEvents   int
	episodes    []press.Episode // the last version's episodes
	lastCamp    press.CampaignResult
}

// campaignRepeat is the loop behind Figures 1, 6 and 7: for each version
// a fresh handle with a serial engine, the full Table-1 campaign
// (saturation probe included) and the phase-2 model. A smoke repeat runs
// one episode per version instead of the campaign.
func campaignRepeat(rec *recorder, parent int, o press.Options, versions []press.Version, smoke bool) campaignOut {
	out := campaignOut{unavailPct: map[string]float64{}}
	h := sha256.New()
	sched := press.FastSchedule()
	for i, v := range versions {
		c := press.New(press.WithVersion(v), press.WithOptions(o), press.WithWorkers(1))
		specs := press.Table1(harness.ServerCount(v, o), 2, v.HasFrontend())
		var camp press.CampaignResult
		var err error
		rec.doSim(parent, "harness.RunCampaign/"+string(v), "harness", func() {
			if !smoke {
				camp, err = c.RunCampaign(sched)
				return
			}
			specs = specs[:1]
			var ep press.Episode
			ep, err = c.RunEpisode(specs[0].Type, harness.DefaultComponent(specs[0].Type), sched)
			camp = press.CampaignResult{Version: v, Normal: ep.Normal, Offered: ep.Offered,
				Loads: []press.FaultLoad{{Spec: specs[0], Tpl: ep.Tpl}}, Eps: []press.Episode{ep}}
		})
		out.ops += len(specs)
		if err != nil {
			out.failed += len(specs)
			fmt.Fprintf(h, "%s error %v\n", v, err)
			continue
		}
		var model press.ModelResult
		rec.do(parent, "avail.Model/"+string(v), "avail", func(int) {
			model, err = camp.Model(press.DefaultModelEnv())
		})
		if err != nil {
			out.failed += len(specs)
			fmt.Fprintf(h, "%s model error %v\n", v, err)
			continue
		}
		sat := camp.Offered
		if !smoke {
			sat = c.Saturation() // memoized on the handle by the campaign
		}
		if i == 0 {
			out.saturation = sat
		}
		out.avail = model.AA
		out.unavailPct[string(v)] = model.Unavailability
		out.episodes, out.lastCamp = camp.Eps, camp
		fmt.Fprintf(h, "%s sat=%v AA=%v offered=%v\n", v, sat, model.AA, camp.Offered)
		for _, ep := range camp.Eps {
			out.logEvents += ep.Log.Len()
			fmt.Fprintf(h, "%v log=%d normal=%v markers=%+v\n%s", ep.Fault, ep.Log.Len(), ep.Normal, ep.Markers, ep.Tpl)
			fmt.Fprintln(h, ep.Series.Buckets())
		}
	}
	out.fingerprint = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return out
}

func runCampaign4(cfg runConfig) *result {
	m := newMeter(cfg)
	o := press.FastOptions(cfg.Seed)
	versions := []press.Version{press.COOP, press.FME}
	if cfg.Smoke {
		versions = versions[:1]
		o.Rate = 200 // an explicit rate keeps the saturation probe out of the smoke repeats
	}

	// Set-up is one whole repeat, discarded: it primes the default
	// engine's saturation memo (every episode's Build goes through it, so
	// the first repeat of a process probes twice per version) and grows
	// the heap to its working size.
	m.sampleYard()
	t0 := time.Now()
	cold := m.rec.do(0, "campaign4.cold_repeat", "pressbench", func(id int) {
		campaignRepeat(m.rec, id, o, versions, cfg.Smoke)
	})
	m.setupDone(t0)
	m.sampleYard()

	var last campaignOut
	for m.more() {
		mem0 := readMem()
		m.repeat(func() (int, int, string) {
			id := m.rec.start(0, "campaign4.repeat", "pressbench", false)
			last = campaignRepeat(m.rec, id, o, versions, cfg.Smoke)
			m.rec.end(id)
			return last.ops, last.failed, last.fingerprint
		})
		mem1 := readMem()
		m.res.add("availability", last.avail)
		m.res.add("served_rps", last.saturation)
		m.res.add("goruntime.allocs_per_repeat", float64(mem1.mallocs-mem0.mallocs))
		m.res.add("goruntime.num_gc", float64(mem1.numGC-mem0.numGC))
		m.sampleYard()
	}
	if cfg.Trace && last.failed == 0 {
		m.res.add("harness.cold_repeat_ratio", cold.Seconds()/median(m.plain))
		campaignLayers(m, o, versions, last)
	}
	return m.finish()
}

// campaignLayers takes the per-layer numbers of a traced campaign4 run
// that the repeats themselves cannot give.
func campaignLayers(m *meter, o press.Options, versions []press.Version, last campaignOut) {
	res, rec := m.res, m.rec
	sched := press.FastSchedule()
	res.add("harness.unavail_pct_coop", last.unavailPct[string(press.COOP)])
	res.add("harness.unavail_pct_fme", last.unavailPct[string(press.FME)])
	res.add("metrics.log_events", float64(last.logEvents))
	var detect []float64
	for _, ep := range last.episodes {
		detect = append(detect, (ep.Markers.Detect - ep.Markers.Fault).Seconds())
	}
	res.add("harness.detect_s_mean", mean(detect))

	// The probe alone, on a fresh handle whose memo cannot answer it.
	first := versions[0]
	probe := press.New(press.WithVersion(first), press.WithOptions(o), press.WithWorkers(1))
	res.add("harness.saturation_probe_s", rec.doSim(0, "harness.Saturation/"+string(first), "harness", func() {
		probe.Saturation()
	}).Seconds())

	// The Table-1 walk of the last version, one episode per span.
	v := versions[len(versions)-1]
	walk := press.New(press.WithVersion(v), press.WithOptions(o), press.WithWorkers(1))
	specs := press.Table1(harness.ServerCount(v, o), 2, v.HasFrontend())
	if m.cfg.Smoke {
		specs = specs[:1]
	}
	var episodeS []float64
	for _, spec := range specs {
		d := rec.doSim(0, "harness.RunEpisode/"+spec.Type.String(), "harness", func() {
			if _, err := walk.RunEpisode(spec.Type, harness.DefaultComponent(spec.Type), sched); err != nil {
				res.fail(0, "episode walk %v: %v", spec.Type, err)
			}
		})
		episodeS = append(episodeS, d.Seconds())
	}
	res.add("harness.episode_s_p50", median(episodeS))

	const iters = 200
	var extractUs, modelUs []float64
	for _, ep := range last.episodes {
		d := rec.do(0, "template7.ExtractMulti", "template7", func(int) {
			for i := 0; i < iters; i++ {
				if _, _, err := template7.ExtractMulti(ep.Fault.String(), ep.Series, ep.Markers, ep.Normal, 0); err != nil {
					res.fail(0, "template extract %v: %v", ep.Fault, err)
					return
				}
			}
		})
		extractUs = append(extractUs, us(d)/iters)
	}
	res.add("template7.extract_us", median(extractUs))
	for r := 0; r < 5; r++ {
		d := rec.do(0, "avail.Model", "avail", func(int) {
			for i := 0; i < iters; i++ {
				_, _ = last.lastCamp.Model(press.DefaultModelEnv()) // checked in every repeat
			}
		})
		modelUs = append(modelUs, us(d)/iters)
	}
	res.add("avail.model_us", median(modelUs))

	// Census: the fault-free part of one episode on the first version's
	// world, for the counts Episode does not carry.
	c := press.New(press.WithVersion(first), press.WithOptions(o), press.WithWorkers(1))
	dep := c.Build()
	dep.Gen.Start()
	rec.doSim(0, "sim.RunFor/census", "sim", func() { dep.Sim.RunFor(o.Warmup + sched.Settle) })
	census(res, dep, counterBase{})
	heap := liveHeapMB()
	runtime.KeepAlive(dep)
	res.add("goruntime.live_heap_mb", heap)

	smallRigs(res, rec, m.cfg.rigDiv())
}
