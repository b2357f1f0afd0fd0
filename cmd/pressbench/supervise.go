package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadRow is one workload's line of the report: every metric it
// defines as median, min, max and sample count, with ops and failed ops.
type workloadRow struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Traced    bool            `json:"traced"`
	Children  int             `json:"children"`
	Ops       int             `json:"ops"`
	FailedOps int             `json:"failed_ops"`
	Metrics   map[string]stat `json:"metrics"`
	Errors    []string        `json:"errors,omitempty"`

	spans []span
}

// nominalOps is one repeat's operation count, charged as failed when a
// child dies before it can report its own.
var nominalOps = map[string]int{wCampaign4: 15, wScale256: 1, wForkChaos: 128, wLive3: liveRequests}

// expected is how long one child should take; three times it is the
// hard deadline after which the child is killed and reported as failed.
func expected(cfg runConfig) time.Duration {
	s := 1.25*cfg.Seconds + 10
	switch {
	case cfg.Workload == wLive3 || cfg.Smoke:
		s = 10 // one request window, or one smoke pass
	case cfg.Trace:
		s = cfg.Seconds + 25
	}
	return time.Duration(s * float64(time.Second))
}

// runChild measures cfg in a fresh process and returns its result and
// memory high-water. A child that crashes, times out or prints garbage
// comes back as an error carrying the tail of its standard error.
func runChild(cfg runConfig) (*result, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	deadline := 3 * expected(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	args := []string{"-child", "-workload", cfg.Workload,
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64)}
	if cfg.Trace {
		args = append(args, "-trace", "1")
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	tail := func() string {
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		if len(lines) > 12 {
			lines = lines[len(lines)-12:]
		}
		return strings.Join(lines, "\n")
	}
	if ctx.Err() != nil {
		return nil, 0, fmt.Errorf("child timed out after %v (3x expected); stderr tail:\n%s", deadline, tail())
	}
	if runErr != nil {
		return nil, 0, fmt.Errorf("child failed: %v; stderr tail:\n%s", runErr, tail())
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("child printed no result: %v; stderr tail:\n%s", err, tail())
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return &res, rssMB, nil
}

// supervise measures one workload in as many child processes as its
// recipe asks for and folds their samples into a row. Whatever happens
// to a child, the row comes back.
func supervise(cfg runConfig, env environment) *workloadRow {
	row := &workloadRow{Workload: cfg.Workload, Seed: cfg.Seed, Traced: cfg.Trace, Metrics: map[string]stat{}}
	if cfg.Workload == wLive3 && env.FDLimit < minLiveFDs {
		row.Ops = nominalOps[wLive3]
		row.FailedOps = row.Ops
		row.Errors = append(row.Errors, fmt.Sprintf("pre-flight: RLIMIT_NOFILE is %d; live3 needs %d because livenet leaks one descriptor per request", env.FDLimit, minLiveFDs))
		return row
	}
	samples := map[string][]float64{}
	child := func(c runConfig) *result {
		res, rss, err := runChild(c)
		row.Children++
		if err != nil {
			row.Ops += nominalOps[c.Workload]
			row.FailedOps += nominalOps[c.Workload]
			row.Errors = append(row.Errors, err.Error())
			return nil
		}
		row.Ops += res.Ops
		row.FailedOps += res.FailedOps
		row.Errors = append(row.Errors, res.Errors...)
		row.spans = append(row.spans, res.Spans...)
		for name, xs := range res.Samples { //availlint:allow maporder each name appends to its own slice; order across names is irrelevant
			samples[name] = append(samples[name], xs...)
		}
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rss)
		return res
	}

	switch {
	case cfg.Workload != wLive3:
		child(cfg)
	case cfg.Trace:
		// live3's plain and profiled windows are two processes; the
		// overhead is the second's wall over the first's.
		plain := cfg
		plain.Trace = false
		u := child(plain)
		t := child(cfg)
		if u != nil && t != nil && len(u.Samples["wall_s"]) > 0 && len(t.Samples["wall_s"]) > 0 {
			samples["pressbench.trace_overhead"] = []float64{median(t.Samples["wall_s"]) / median(u.Samples["wall_s"])}
		}
	default:
		// A fresh process per request window, for as long as the run
		// measures; the row reports medians across them.
		for start := time.Now(); row.Children == 0 || !cfg.Smoke && time.Since(start).Seconds() < cfg.Seconds; {
			if child(cfg) == nil {
				break
			}
		}
	}

	for name, xs := range samples {
		row.Metrics[name] = summarize(xs)
	}
	// The simulated clock is exact: a repeat that disagrees with another
	// is a failed check, whatever the fingerprints said.
	if cfg.Workload != wLive3 {
		for _, name := range []string{"availability", "served_rps"} {
			if st := row.Metrics[name]; st.N > 0 && st.Min != st.Max {
				row.Errors = append(row.Errors, fmt.Sprintf("%s differs between repeats of a deterministic workload: %v..%v", name, st.Min, st.Max))
				row.FailedOps = row.Ops
			}
		}
	}
	return row
}

// correct reports whether the row can be believed: no failed operation,
// no failed check, and every metric of specs that the workload defines
// present.
func (r *workloadRow) correct(specs []metricSpec) bool {
	if r.FailedOps > 0 || len(r.Errors) > 0 || r.Ops == 0 {
		return false
	}
	for _, s := range specs {
		if s.definedOn(r.Workload) && r.Metrics[s.Name].N == 0 {
			return false
		}
	}
	return true
}

// print writes the row as a table: every metric by name with its unit.
func (r *workloadRow) print(w io.Writer) {
	kind, specs := "untraced", endToEnd
	if r.Traced {
		kind, specs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %d child process(es)): ops %d, failed_ops %d\n", r.Workload, kind, r.Seed, r.Children, r.Ops, r.FailedOps)
	fmt.Fprintf(w, "%-40s %-9s %14s %14s %14s %4s\n", "metric", "unit", "median", "min", "max", "n")
	for _, s := range specs {
		st := r.Metrics[s.Name]
		if st.N == 0 {
			if s.definedOn(r.Workload) {
				fmt.Fprintf(w, "%-40s %-9s %14s\n", s.Name, s.Unit, "MISSING")
			}
			continue
		}
		fmt.Fprintf(w, "%-40s %-9s %14.6g %14.6g %14.6g %4d\n", s.Name, s.Unit, st.Median, st.Min, st.Max, st.N)
	}
	if !r.Traced {
		units := specByName(perLayer)
		for _, name := range contextMetrics {
			if st := r.Metrics[name]; st.N > 0 {
				fmt.Fprintf(w, "%-40s %-9s %14.6g %14.6g %14.6g %4d\n", "  "+name, units[name].Unit, st.Median, st.Min, st.Max, st.N)
			}
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	if r.Traced {
		printLayers(w, r)
	}
}

// shares returns the traced row's CPU share per layer.
func (r *workloadRow) shares() map[string]float64 {
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = r.Metrics[l+".cpu_share"].Median
	}
	return shares
}

// printLayers writes the traced run's layer table: each layer's share of
// CPU inside the timed windows and the host time of pressbench's spans
// attributed to it (a simulator-driving span's self time is apportioned
// by the shares).
func printLayers(w io.Writer, r *workloadRow) {
	shares := r.shares()
	selfMs := layerSelfMs(r.spans, shares)
	layers := make([]string, 0, len(selfMs))
	for l := range selfMs {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return selfMs[layers[i]] > selfMs[layers[j]] })
	fmt.Fprintf(w, "%-24s %10s %14s\n", "layer", "cpu_share", "span_self_ms")
	for _, l := range layers {
		fmt.Fprintf(w, "%-24s %10.4f %14.1f\n", l, shares[l], selfMs[l])
	}
}

// traceFile is trace.json: every span of the traced pass, flat, with the
// CPU shares needed to apportion the simulator-driving ones.
type traceFile struct {
	Schema    string       `json:"schema"`
	Workloads []traceEntry `json:"workloads"`
}

type traceEntry struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	CPUShares   map[string]float64 `json:"cpu_shares"`
	LayerSelfMs map[string]float64 `json:"layer_self_ms"`
	Spans       []span             `json:"spans"`
}

func writeTrace(path string, rows []*workloadRow) error {
	tf := traceFile{Schema: "press-trace/1"}
	for _, r := range rows {
		shares := r.shares()
		tf.Workloads = append(tf.Workloads, traceEntry{
			Workload: r.Workload, Seed: r.Seed, CPUShares: shares,
			LayerSelfMs: layerSelfMs(r.spans, shares), Spans: r.spans,
		})
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
