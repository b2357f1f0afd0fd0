// Command pressbench is the repository's benchmark: four named workloads,
// end-to-end metrics with their spread, and a traced run that gives the
// per-layer metrics. BENCHMARK.json at the repository root declares it;
// README.md beside this file says what every number means.
//
//	go run ./cmd/pressbench                      every workload, untraced
//	go run ./cmd/pressbench -trace 1             ... then traced
//	go run ./cmd/pressbench -workload scale256   one workload
//	go run ./cmd/pressbench -aa                  the untraced pass twice, compared
//
// Every workload is measured in a child process of its own, so memory
// high-water and heap state are per workload, with the process defaults a
// user of reproduce -fig or -chaos gets: default GOGC and GOMAXPROCS,
// harness workers 1. With -workload the last line of standard output is
// one JSON object: the end-to-end metrics, or with -trace 1 the per-layer
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run one workload: campaign4, scale256, forkchaos or live3 (default: all four)")
	seed := flag.Int64("seed", 1, "shapes the generated inputs only: world seed, chaos seeds N..N+127, client RNG")
	seconds := flag.Float64("seconds", 30, "how long each workload's timed repeats run")
	trace := flag.Int("trace", 0, "1: run each workload traced, for the per-layer metrics and trace.json")
	aa := flag.Bool("aa", false, "run the untraced pass twice and compare the two sets against the bounds")
	smoke := flag.Bool("smoke", false, "run each workload's code path at reduced size (numbers are not the workloads')")
	child := flag.Bool("child", false, "internal: measure in this process and print the raw result")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: pressbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-smoke]")
		os.Exit(2)
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke}

	run, known := runners[cfg.Workload]
	if !known && (cfg.Workload != "" || *child) {
		fmt.Fprintf(os.Stderr, "pressbench: unknown workload %q\n", cfg.Workload)
		os.Exit(2)
	}

	if *child {
		if _, err := raiseFDLimit(); err != nil {
			fmt.Fprintln(os.Stderr, "pressbench:", err)
			os.Exit(2)
		}
		if err := json.NewEncoder(os.Stdout).Encode(run(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "pressbench:", err)
			os.Exit(1)
		}
		return
	}

	env, err := preflight()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pressbench:", err)
		os.Exit(2)
	}
	fmt.Printf("pressbench: nproc %d, %s, commit %s, fd limit %d, seed %d, %gs per workload\n",
		env.NProc, env.Go, env.Commit, env.FDLimit, cfg.Seed, cfg.Seconds)

	switch {
	case cfg.Workload != "":
		os.Exit(runOne(cfg, env))
	case *aa:
		os.Exit(runAA(cfg, env))
	default:
		os.Exit(runAll(cfg, env))
	}
}

// runners maps a workload's name to the function that measures it in the
// current process.
var runners = map[string]func(runConfig) *result{
	wCampaign4: runCampaign4,
	wScale256:  runScale256,
	wForkChaos: runForkChaos,
	wLive3:     runLive3,
}

// runOne is the contract the benchmark driver speaks: one workload, one
// JSON object as the last line of standard output.
func runOne(cfg runConfig, env environment) int {
	row := supervise(cfg, env)
	row.print(os.Stdout)
	if cfg.Trace {
		if err := writeTrace("trace.json", []*workloadRow{row}); err != nil {
			fmt.Fprintln(os.Stderr, "pressbench:", err)
			return 1
		}
	}
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	line := driverLine{Correct: row.correct(specs), Attempted: max(row.Ops, 1), Failed: row.FailedOps, Metrics: map[string]driverMetric{}}
	for _, s := range specs {
		line.Metrics[s.Name] = driverMetric{Value: row.Metrics[s.Name].Median, Unit: s.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pressbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// report is pressbench.json.
type report struct {
	Schema    string         `json:"schema"`
	Generated string         `json:"generated"`
	Env       environment    `json:"env"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Untraced  []*workloadRow `json:"untraced"`
	Traced    []*workloadRow `json:"traced,omitempty"`
}

// pass runs every workload once, traced or not.
func pass(cfg runConfig, env environment, traced bool) []*workloadRow {
	var rows []*workloadRow
	for _, w := range workloads {
		c := cfg
		c.Workload, c.Trace = w.Name, traced
		row := supervise(c, env)
		row.print(os.Stdout)
		rows = append(rows, row)
	}
	return rows
}

func allCorrect(rows []*workloadRow, specs []metricSpec) bool {
	ok := true
	for _, r := range rows {
		ok = r.correct(specs) && ok
	}
	return ok
}

func runAll(cfg runConfig, env environment) int {
	rep := report{Schema: "press-bench/9", Generated: time.Now().UTC().Format(time.RFC3339),
		Env: env, Seed: cfg.Seed, Seconds: cfg.Seconds}
	rep.Untraced = pass(cfg, env, false)
	ok := allCorrect(rep.Untraced, endToEnd)
	if cfg.Trace {
		rep.Traced = pass(cfg, env, true)
		ok = allCorrect(rep.Traced, perLayer) && ok
		if err := writeTrace("trace.json", rep.Traced); err != nil {
			fmt.Fprintln(os.Stderr, "pressbench:", err)
			return 1
		}
		fmt.Println("wrote trace.json")
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile("pressbench.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pressbench:", err)
		return 1
	}
	fmt.Println("wrote pressbench.json")
	if !ok {
		return 1
	}
	return 0
}

// runAA measures the same code twice and holds the second set against
// the first by the benchmark's own bounds, the way a change is held
// against its parent.
func runAA(cfg runConfig, env environment) int {
	first := pass(cfg, env, false)
	second := pass(cfg, env, false)
	ok := allCorrect(first, endToEnd) && allCorrect(second, endToEnd)
	fmt.Printf("\n%-10s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for i, a := range first {
		b := second[i]
		for _, s := range endToEnd {
			x, y := a.Metrics[s.Name].Median, b.Metrics[s.Name].Median
			worse := 0.0
			if x != 0 {
				worse = (y - x) / x
				if s.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			if worse > s.Bound {
				verdict = "  PAST BOUND"
				ok = false
			}
			fmt.Printf("%-10s %-14s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", a.Workload, s.Name, x, y, 100*worse, 100*s.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
