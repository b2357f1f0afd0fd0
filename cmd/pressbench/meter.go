package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"time"
)

// runConfig is one measuring process's assignment.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks every workload to a size the package test can run.
	// Its numbers are never reported under the workloads' names.
	Smoke bool
}

// rigDiv is what a run divides the rigs' operation counts by.
func (c runConfig) rigDiv() int {
	if c.Smoke {
		return 50
	}
	return 1
}

// result is what one measuring process hands back: one sample per repeat
// (or per child, for live3) under each metric's name.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Ops       int                  `json:"ops"`
	FailedOps int                  `json:"failed_ops"`
	Samples   map[string][]float64 `json:"samples"`
	Errors    []string             `json:"errors,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
}

func (r *result) add(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

func (r *result) fail(ops int, format string, args ...any) {
	r.FailedOps += ops
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// meter runs a workload's repeats: it times them, samples the yardstick
// between them, alternates unprofiled and profiled repeats in a traced
// run, and checks that every repeat of a deterministic workload produced
// the same outputs.
type meter struct {
	cfg       runConfig
	res       *result
	rec       *recorder // nil in an untraced run
	loopStart time.Time
	repeats   int
	first     string // fingerprint of the first repeat
	// everyRepeat profiles every repeat of a traced run rather than every
	// other one: live3's plain window runs in a process of its own.
	everyRepeat bool
	// rawSetup leaves setup_s as measured: live3's set-up waits on
	// heartbeat timers, which the host's speed does not stretch.
	rawSetup bool
	plain    []float64
	profiled []float64
	samples  []profSample
	yard     []float64 // yardstick slices, seconds
}

func newMeter(cfg runConfig) *meter {
	m := &meter{cfg: cfg, res: &result{
		Workload: cfg.Workload, Seed: cfg.Seed, Samples: map[string][]float64{},
	}}
	if cfg.Trace {
		m.rec = newRecorder(cfg.Workload, cfg.Seed)
	}
	return m
}

// sampleYard times the yardstick. Workloads call it between timed
// regions, at points where their own live heap is small: the yardstick's
// collections must cost what they cost on an idle heap.
func (m *meter) sampleYard() {
	n := yardSlices
	if m.cfg.Smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		m.yard = append(m.yard, yardSlice().Seconds())
	}
}

// slowdown is how much slower than nominal the host has run the
// yardstick during this run so far.
func (m *meter) slowdown() float64 {
	if len(m.yard) == 0 {
		return 1
	}
	return median(m.yard) / yardNominal.Seconds()
}

// more reports whether another repeat should start. An untraced run
// measures for cfg.Seconds. A traced run alternates plain and profiled
// repeats, plain first and plain last, so that a process still growing
// its heap does not read as profiling overhead: at least three repeats,
// more for as long as a quarter of cfg.Seconds lasts (the rest goes to
// the spans and rigs that follow).
func (m *meter) more() bool {
	if m.loopStart.IsZero() {
		m.loopStart = time.Now()
		return true
	}
	if m.cfg.Trace && (m.repeats < 3 || m.repeats%2 == 0) {
		return true
	}
	if m.cfg.Smoke {
		return false
	}
	budget := m.cfg.Seconds
	if m.cfg.Trace {
		budget /= 4
	}
	return time.Since(m.loopStart).Seconds() < budget
}

// setupDone records one set-up that began at t0.
func (m *meter) setupDone(t0 time.Time) {
	m.res.add("setup_s", time.Since(t0).Seconds())
}

// repeat times one repeat of the workload's fixed work. fn returns the
// repeat's ops, how many failed, and a fingerprint of its outputs. Every
// other repeat of a traced run is taken under the CPU profiler.
func (m *meter) repeat(fn func() (ops, failed int, fingerprint string)) (wall float64) {
	profiled := m.cfg.Trace && (m.everyRepeat || m.repeats%2 == 1)
	var buf bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			m.res.fail(0, "cpu profile: %v", err)
			profiled = false
		}
	}
	c0, t0 := cpuTime(), time.Now()
	ops, failed, fp := fn()
	wall = time.Since(t0).Seconds()
	cpu := (cpuTime() - c0).Seconds()
	if profiled {
		pprof.StopCPUProfile()
		samples, err := parseProfile(buf.Bytes())
		if err != nil {
			m.res.fail(0, "%v", err)
		}
		m.samples = append(m.samples, samples...)
		m.profiled = append(m.profiled, wall)
	} else {
		m.plain = append(m.plain, wall)
	}
	if !profiled || m.everyRepeat {
		m.res.add("wall_s", wall)
		m.res.add("goruntime.cpu_s", cpu)
	}
	m.repeats++
	m.res.Ops += ops
	m.res.FailedOps += failed
	switch {
	case m.first == "":
		m.first = fp
	case fp != m.first:
		// A deterministic workload that answers differently on a later
		// repeat has no trustworthy answer at all.
		m.res.fail(ops-failed, "repeat %d fingerprint %s differs from the first repeat's %s", m.repeats, fp, m.first)
	}
	return wall
}

// finish closes the run: it brings the end-to-end host times to
// yardstick speed 1, keeping the raw wall times and the slowdown beside
// them, and in a traced run turns the profile into the cpu_share metrics
// and checks that they account for every sample.
func (m *meter) finish() *result {
	slow := m.slowdown()
	m.res.add("pressbench.host_slowdown", slow)
	m.res.Samples["pressbench.raw_wall_s"] = append([]float64(nil), m.res.Samples["wall_s"]...)
	scale := []string{"wall_s"}
	if !m.rawSetup {
		scale = append(scale, "setup_s")
	}
	for _, name := range scale {
		for i := range m.res.Samples[name] {
			m.res.Samples[name][i] /= slow
		}
	}
	if m.cfg.Trace {
		shares, gc, total := cpuShares(m.samples)
		if total == 0 {
			m.res.fail(0, "cpu profile holds no samples")
		}
		sum := 0.0
		for _, l := range shareLayers {
			m.res.add(l+".cpu_share", shares[l])
			sum += shares[l]
		}
		if total > 0 && math.Abs(sum-1) > 0.01 {
			m.res.fail(0, "cpu shares sum to %.4f, not 1", sum)
		}
		m.res.add("goruntime.gc_cpu_fraction", gc)
		if len(m.plain) > 0 && len(m.profiled) > 0 {
			m.res.add("pressbench.trace_overhead", median(m.profiled)/median(m.plain))
		}
		m.res.Spans = m.rec.all()
	}
	return m.res
}

// shares returns the traced run's CPU shares so far (for the
// per-event figures, which need them before finish).
func (m *meter) shares() map[string]float64 {
	s, _, _ := cpuShares(m.samples)
	return s
}
