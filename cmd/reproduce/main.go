// Command reproduce regenerates every table and figure of the paper's
// evaluation and prints them (optionally into a file suitable for
// EXPERIMENTS.md).
//
// Usage:
//
//	reproduce [-fig all|1a|1b|2|4|6|7|8|9a|9b|10|t1|t2] [-fast] [-seed N] [-o file] [-workers N]
//	          [-nodes N] [-protocol faithful|scalable]
//	reproduce -chaos [-seeds N] [-version FME] [-shrink] [-repro-dir dir] [-fast] [-gray]
//	reproduce -chaos [-snapshot file.snap | -from-snapshot file.snap] ...
//	reproduce -chaos-replay file.json
//
// Any mode accepts -cpuprofile/-memprofile/-trace to capture a pprof CPU
// profile, a pprof allocation profile, or a runtime execution trace of
// the run (go tool pprof / go tool trace read them).
//
// -fast runs the reduced-scale profile (quarter-size document set and
// caches, shorter windows); the full profile is the paper-faithful one
// and takes considerably longer. Episodes run concurrently on the
// harness worker pool (GOMAXPROCS simulators by default); -workers
// bounds that, and -workers 1 forces serial execution — the results are
// bit-identical either way.
//
// -chaos runs a multi-fault chaos campaign instead: seeds 1..N each draw
// a deterministic fault schedule (overlapping faults, link flap, disk
// stutter), play it against the chosen version, and check the cluster
// invariant catalog. Violations are shrunk to minimal schedules and
// written as runnable repro files; the exit status is non-zero if any
// seed violates. -chaos-replay re-executes such a repro file and reports
// whether the recorded violation still reproduces.
//
// -gray widens each seed's schedule past Table 1, in one fixed shape: the
// partial-degradation classes (node-slow, link-lossy, disk-degraded) at
// their class-default severity, one expected correlated multi-fault event
// per horizon (a switch-takes-rack or power-event group over a 2-node
// rack), and a one-in-four fault-during-recovery chase per steady fault.
// The Table 1 entries of a seed's schedule stay as they were. The
// standing invariant catalog still judges the runs;
// the opt-in gray detection probes (gray-detected, no-false-eviction) are
// experiment instruments, not CI gates — see EXPERIMENTS.md.
//
// -snapshot warms the campaign's world once, writes the warm snapshot to
// the named file, and runs the campaign warm-forked from it (every seed
// rehydrates an independent copy instead of re-warming). -from-snapshot
// skips the warm ramp entirely and forks the campaign from a previously
// written snapshot file; the snapshot's envelope supplies the version
// and world options, so -version/-fast are ignored. Snapshot-backed
// campaigns run on every version.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"press"
)

func main() { os.Exit(run(os.Args[1:])) }

// invocation is one reproduce command line that some run can honour.
type invocation struct {
	figs                          map[string]bool // nil = all
	fast                          bool
	seed                          int64
	out                           string
	workers                       int
	nodes                         int
	suite                         press.ProtocolSuite
	chaos                         bool
	seeds                         int
	version                       press.Version
	shrink                        bool
	reproDir, replay              string
	gray                          bool
	snapOut, snapIn               string
	cpuprofile, memprofile, trace string
}

// parseArgs checks a command line before anything runs. It returns the
// invocation, or nil and the exit status: 2 for arguments no run can
// honour, with the reason written to stderr, and 0 after -help printed
// the usage there.
func parseArgs(args []string, stderr io.Writer) (*invocation, int) {
	var inv invocation
	var protocol, version string
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which figure/table to regenerate (comma-separated), or 'all'")
	fs.BoolVar(&inv.fast, "fast", false, "reduced-scale profile")
	fs.Int64Var(&inv.seed, "seed", 1, "simulation seed")
	fs.StringVar(&inv.out, "o", "", "also write output to this file")
	fs.IntVar(&inv.workers, "workers", 0, "max concurrent simulators (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&inv.nodes, "nodes", 0, "server-node count (0 = the paper's 4; other counts require -protocol scalable)")
	fs.StringVar(&protocol, "protocol", "faithful", "protocol suite: faithful (paper, golden-dump identical) or scalable (gossip membership + sharded directory)")
	fs.BoolVar(&inv.chaos, "chaos", false, "run a chaos campaign instead of figures")
	fs.IntVar(&inv.seeds, "seeds", 8, "chaos: number of campaign seeds (1..N)")
	fs.StringVar(&version, "version", string(press.FME), "chaos: version to bombard")
	fs.BoolVar(&inv.shrink, "shrink", true, "chaos: shrink violating schedules before writing repros")
	fs.StringVar(&inv.reproDir, "repro-dir", ".", "chaos: directory for violation repro files")
	fs.StringVar(&inv.replay, "chaos-replay", "", "replay a chaos repro file and exit")
	fs.BoolVar(&inv.gray, "gray", false, "chaos: add gray faults, correlated groups and recovery chases to every seed's schedule")
	fs.StringVar(&inv.snapOut, "snapshot", "", "chaos: warm once, write the warm snapshot here, fork the campaign from it")
	fs.StringVar(&inv.snapIn, "from-snapshot", "", "chaos: fork the campaign from this snapshot file instead of warming")
	fs.StringVar(&inv.cpuprofile, "cpuprofile", "", "write a CPU profile of the selected mode to this file")
	fs.StringVar(&inv.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&inv.trace, "trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2 // fs has printed the error and the usage
	}

	refuse := func(format string, a ...any) (*invocation, int) {
		fmt.Fprintf(stderr, format+"\n", a...)
		return nil, 2
	}
	if fs.NArg() > 0 {
		return refuse("%q: reproduce takes no positional arguments (figures are chosen with -fig)", fs.Arg(0))
	}
	var err error
	if inv.suite, err = press.ParseProtocolSuite(protocol); err != nil {
		return refuse("%v", err)
	}
	if inv.nodes < 0 {
		return refuse("-nodes %d: the server-node count must be positive (0 = the paper's 4)", inv.nodes)
	}
	if inv.nodes != 0 && inv.nodes != 4 && inv.suite != press.Scalable {
		return refuse("-nodes %d needs -protocol scalable: the faithful suite's broadcast directory and all-pairs announce traffic are the paper's 4-node protocols and do not scale", inv.nodes)
	}
	if inv.figs, err = parseFigs(*fig); err != nil {
		return refuse("%v", err)
	}
	if err := checkVersion(version); err != nil {
		return refuse("%v", err)
	}
	inv.version = press.Version(version)
	if inv.seeds < 1 {
		return refuse("-seeds %d: a chaos campaign runs seeds 1..N, N at least 1", inv.seeds)
	}
	if inv.snapOut != "" && inv.snapIn != "" {
		return refuse("-snapshot and -from-snapshot are two ways to get the campaign's warm world: pass one")
	}
	return &inv, 0
}

// options are the run's world options: the fast profile or the
// paper-faithful one at -seed, shaped by -nodes and -protocol.
func (inv *invocation) options() press.Options {
	o := press.Options{Seed: inv.seed}
	if inv.fast {
		o = press.FastOptions(inv.seed)
	}
	o.Nodes = inv.nodes
	o.Protocol = inv.suite
	if inv.suite == press.Scalable && inv.nodes > 4 && o.Rate == 0 {
		// The 90%-of-saturation probe is a 4-node instrument: at wide
		// scale the cold-cache overload it applies splinters the
		// cluster before it warms and measures zero. Load scalable
		// topologies at the explicit per-node rate the scale tests
		// and the bench curve use, with their shortened warmup.
		o.Rate = 40 * float64(inv.nodes)
		o.Warmup = time.Minute
	}
	return o
}

// run executes one reproduce invocation and returns its exit status. A
// flag no run can honour exits 2 before anything is simulated or written.
func run(args []string) int {
	inv, code := parseArgs(args, os.Stderr)
	if inv == nil {
		return code
	}

	stopProf, err := startProfiling(inv.cpuprofile, inv.memprofile, inv.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()

	workers := inv.workers
	if workers > 0 {
		press.SetGlobalWorkers(workers)
	} else {
		workers = runtime.GOMAXPROCS(0)
	}

	if inv.replay != "" {
		return replayRepro(inv.replay)
	}
	if inv.chaos {
		return runChaosCampaign(inv)
	}

	o := inv.options()
	fg := press.NewFigures(o)
	if inv.fast {
		fg.Sched = press.FastSchedule()
	}

	var sink *os.File
	if inv.out != "" {
		f, err := os.Create(inv.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		sink = f
	}
	emit := func(s string) {
		fmt.Print(s)
		if sink != nil {
			fmt.Fprint(sink, s)
		}
	}

	emit(fmt.Sprintf("# Reproduction run: seed=%d fast=%v workers=%d started %s\n\n",
		inv.seed, inv.fast, workers, time.Now().Format(time.RFC3339)))
	for _, g := range gens {
		if inv.figs != nil && !inv.figs[g.key] {
			continue
		}
		start := time.Now()
		tab, err := g.fn(fg)
		if err != nil {
			emit(fmt.Sprintf("!! %s failed: %v\n\n", g.key, err))
			continue
		}
		emit(tab.String())
		emit(fmt.Sprintf("(generated in %.1fs)\n\n", time.Since(start).Seconds()))
	}
	return 0
}

// checkVersion refuses a -version no chaos campaign can run: one the
// harness does not know, or one the paper only models.
func checkVersion(v string) error {
	measured := press.AllMeasuredVersions()
	if slices.Contains(measured, press.Version(v)) {
		return nil
	}
	names := make([]string, len(measured))
	for i, m := range measured {
		names[i] = string(m)
	}
	return fmt.Errorf("-version %q: not a measured version (want one of %s)", v, strings.Join(names, ", "))
}

// gens lists every table and figure in the order -fig all prints them.
var gens = []struct {
	key string
	fn  func(*press.Figures) (press.Table, error)
}{
	{"t1", (*press.Figures).Table1},
	{"1a", (*press.Figures).Figure1a},
	{"1b", (*press.Figures).Figure1b},
	{"2", (*press.Figures).Figure2},
	{"4", (*press.Figures).Figure4},
	{"6", (*press.Figures).Figure6},
	{"7", (*press.Figures).Figure7},
	{"8", (*press.Figures).Figure8},
	{"9a", (*press.Figures).Figure9a},
	{"9b", (*press.Figures).Figure9b},
	{"10", (*press.Figures).Figure10},
	{"t2", (*press.Figures).Table2},
}

// parseFigs resolves the -fig value into the set of keys to generate
// (nil means all), rejecting any key gens does not list: a typo must not
// look like a successful run that printed nothing.
func parseFigs(fig string) (map[string]bool, error) {
	if fig == "all" {
		return nil, nil
	}
	valid := make([]string, len(gens))
	for i, g := range gens {
		valid[i] = g.key
	}
	want := map[string]bool{}
	for _, k := range strings.Split(fig, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(valid, k) {
			return nil, fmt.Errorf("-fig %q: unknown key %q (want all or a comma-separated list of %s)", fig, k, strings.Join(valid, ", "))
		}
		want[k] = true
	}
	return want, nil
}

// runChaosCampaign executes the -chaos mode and returns the exit code:
// 0 when every seed satisfies the invariant catalog, 1 otherwise (with a
// repro file written per violating seed). -snapshot or -from-snapshot
// switches to the warm-fork path: one warmed world is captured (or read
// from the file) and every seed forks an independent copy of it.
func runChaosCampaign(inv *invocation) int {
	v, snapIn, snapOut := inv.version, inv.snapIn, inv.snapOut
	o := inv.options()
	cfg := press.ChaosCampaignConfig{
		Seeds:  press.ChaosSeeds(inv.seeds),
		Shrink: inv.shrink,
	}
	if inv.gray {
		cfg.Gen = press.ChaosGenConfig{Gray: true}
		fmt.Println("gray engine on: partial-degradation classes + correlated groups + recovery chases")
	}
	start := time.Now()
	var sum press.ChaosCampaignSummary
	switch {
	case snapIn != "":
		data, err := os.ReadFile(snapIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		snap, err := press.LoadSnapshot(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("forking campaign from %s: %s @ %s (%d bytes, hash %.12s)\n",
			snapIn, snap.Version, snap.At, snap.Size(), snap.Hash())
		if sum, err = press.RunChaosCampaignFromSnapshot(snap, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case snapOut != "":
		snap, err := press.WarmChaosSnapshot(v, o, press.ChaosRunConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(snapOut, snap.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s: %s @ %s (%d bytes, hash %.12s)\n",
			snapOut, snap.Version, snap.At, snap.Size(), snap.Hash())
		if sum, err = press.RunChaosCampaignFromSnapshot(snap, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	default:
		sum = press.RunChaosCampaign(v, o, cfg)
	}
	fmt.Printf("%s(campaign took %.1fs)\n", sum, time.Since(start).Seconds())

	return writeRepros(sum, inv.reproDir)
}

// writeRepros writes one runnable repro file under dir per violating seed
// and returns the campaign's exit code. A repro names the version the
// campaign ran, which is the summary's: a campaign forked from a snapshot
// file runs the snapshot's version, whatever -version says.
func writeRepros(sum press.ChaosCampaignSummary, dir string) int {
	code := 0
	for _, oc := range sum.Outcomes {
		if !oc.Violated() {
			continue
		}
		code = 1
		if oc.Err != nil {
			continue // already reported in the summary
		}
		sched, viol := oc.Schedule, oc.Violations[0]
		if len(oc.Minimal) > 0 {
			sched, viol = oc.Minimal, oc.MinimalViol
		}
		rep := press.NewChaosRepro(sum.Version, oc.Options, press.ChaosRunConfig{}, sched, viol)
		data, err := rep.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		name := fmt.Sprintf("%s/chaos-repro-%s-seed%d-%s.json", dir, sum.Version, oc.Seed, rep.Hash)
		if err := os.WriteFile(name, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("wrote %s (%s)\n", name, viol)
	}
	return code
}

// replayRepro executes the -chaos-replay mode: 0 when the recorded
// violation reproduces, 2 when the run is now clean (the repro went
// stale), 1 on errors.
func replayRepro(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep, err := press.LoadChaosRepro(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("replaying %s on %s: %d-entry schedule (hash %s), recorded violation %q\n",
		path, rep.Version, len(rep.Schedule), rep.Hash, rep.Violated)
	fmt.Print(rep.Schedule)
	res, viols, err := rep.Replay(press.ChaosInvariants())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("availability=%.5f floor=%.5f reintegrated=%v resets=%d\n",
		res.Availability, res.Floor, res.Reintegrated, res.Resets)
	for _, viol := range viols {
		fmt.Printf("violated %s\n", viol)
		if viol.Invariant == rep.Violated {
			fmt.Println("recorded violation REPRODUCED")
			return 0
		}
	}
	if rep.Violated == "" {
		return 0
	}
	fmt.Printf("recorded violation %q did NOT reproduce (%d other violations)\n", rep.Violated, len(viols))
	return 2
}
