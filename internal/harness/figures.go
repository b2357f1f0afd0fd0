package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"press/internal/avail"
	"press/internal/faults"
	"press/internal/template7"
)

// Table is a rendered experiment result: one paper table or figure's data.
type Table struct {
	Name   string // e.g. "figure7"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Name, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func pct(u float64) string   { return fmt.Sprintf("%.4f%%", u) }
func rps(v float64) string   { return fmt.Sprintf("%.1f", v) }
func nines(u float64) string { return fmt.Sprintf("%.5f", 1-u/100) }

// Figures bundles the standing inputs for figure generation.
type Figures struct {
	Opts  Options
	Sched EpisodeSchedule
	Env   avail.Env
	eng   *Engine
}

// NewFigures builds the figure generator with defaults; every campaign and
// saturation probe it needs runs (memoized) on e.
func NewFigures(e *Engine, o Options) *Figures {
	return &Figures{Opts: o.withDefaults(), Env: avail.DefaultEnv(), eng: e}
}

func (fg *Figures) coop() (CampaignResult, error) { return fg.eng.Campaign(VCOOP, fg.Opts, fg.Sched) }

// coopSCSI is the COOP campaign's SCSI-timeout episode, the one Figures 2
// and 4 print.
func (fg *Figures) coopSCSI() (Episode, error) {
	coop, err := fg.coop()
	if err != nil {
		return Episode{}, err
	}
	for _, ep := range coop.Eps {
		if ep.Fault == faults.SCSITimeout {
			return ep, nil
		}
	}
	return Episode{}, fmt.Errorf("harness: the COOP campaign has no %v episode", faults.SCSITimeout)
}

// Figure1a reproduces Figure 1(a): unavailability and throughput of the
// INDEP, FE-X-INDEP and COOP versions.
func (fg *Figures) Figure1a() (Table, error) {
	t := Table{
		Name:   "figure1a",
		Title:  "Unavailability and performance: independent vs cooperative",
		Header: []string{"version", "throughput(req/s)", "unavailability", "availability"},
	}
	if err := fg.eng.prewarmCampaigns(fg.Opts, fg.Sched, VINDEP, VFEXINDEP, VCOOP); err != nil {
		return t, err
	}
	for _, v := range []Version{VINDEP, VFEXINDEP, VCOOP} {
		r, err := fg.measured(v, fg.Opts)
		if err != nil {
			return t, err
		}
		sat := fg.eng.Saturation(v, fg.Opts)
		t.Rows = append(t.Rows, []string{string(v), rps(sat), pct(r.Unavailability), nines(r.Unavailability)})
	}
	t.Notes = append(t.Notes,
		"paper shape: COOP ~3x INDEP throughput, ~10x INDEP unavailability")
	return t, nil
}

// Figure1b reproduces Figure 1(b): modeled unavailability of COOP with
// additional hardware (HW), all software techniques (SW), and both.
func (fg *Figures) Figure1b() (Table, error) {
	t := Table{
		Name:   "figure1b",
		Title:  "Theoretical improvement from hardware and software additions (modeled from COOP)",
		Header: []string{"variant", "unavailability"},
	}
	coop, err := fg.coop()
	if err != nil {
		return t, err
	}
	base, err := coop.Model(fg.Env)
	if err != nil {
		return t, err
	}
	// HW: front-end pair + extra node + RAID + backup switch, no new software.
	hwLoads := PredictLoads(fg.eng, coop, VFEX, fg.Opts)
	hwLoads = avail.WithRAID(avail.WithBackupSwitch(avail.WithRedundantFrontend(hwLoads)))
	hw, err := avail.Availability(coop.Offered, coop.Offered, hwLoads, fg.Env)
	if err != nil {
		return t, err
	}
	// SW: membership + queue monitoring + FME (and the FE that hosts the
	// masking), no extra hardware redundancy.
	sw, err := PredictResult(fg.eng, coop, VFME, fg.Opts, fg.Env)
	if err != nil {
		return t, err
	}
	// SW+HW.
	bothLoads := avail.WithRAID(avail.WithBackupSwitch(avail.WithRedundantFrontend(PredictLoads(fg.eng, coop, VCMON, fg.Opts))))
	both, err := avail.Availability(coop.Offered, coop.Offered, bothLoads, fg.Env)
	if err != nil {
		return t, err
	}
	t.Rows = [][]string{
		{"COOP", pct(base.Unavailability)},
		{"HW", pct(hw.Unavailability)},
		{"SW", pct(sw.Unavailability)},
		{"SW+HW", pct(both.Unavailability)},
	}
	t.Notes = append(t.Notes, "paper shape: HW alone barely helps; SW recovers most; SW+HW best")
	return t, nil
}

// Figure2 reproduces Figure 2: the 7-stage template, instantiated with a
// real extraction (a COOP disk-fault episode).
func (fg *Figures) Figure2() (Table, error) {
	t := Table{
		Name:   "figure2",
		Title:  "The 7-stage piecewise-linear template (COOP, SCSI timeout episode)",
		Header: []string{"stage", "meaning", "duration(s)", "throughput(req/s)"},
	}
	ep, err := fg.coopSCSI()
	if err != nil {
		return t, err
	}
	meaning := []string{
		"fault active, undetected",
		"reconfiguration transient",
		"stable degraded (fault present)",
		"transient after component repair",
		"stable but suboptimal",
		"operator reset",
		"transient after reset",
	}
	for s := template7.StageA; s < template7.NumStages; s++ {
		t.Rows = append(t.Rows, []string{
			s.String(), meaning[s],
			fmt.Sprintf("%.1f", ep.Tpl.Durations[s].Seconds()),
			rps(ep.Tpl.Throughputs[s]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("normal throughput %.1f req/s; operator reset needed: %v", ep.Tpl.Normal, ep.Tpl.NeedsReset))
	return t, nil
}

// Figure4 reproduces Figure 4: the per-second throughput of 4-node COOP
// across a disk-fault injection, as CSV rows.
func (fg *Figures) Figure4() (Table, error) {
	t := Table{
		Name:   "figure4",
		Title:  "Throughput of COOP on 4 nodes across a disk fault (per-second)",
		Header: []string{"second", "req/s"},
	}
	ep, err := fg.coopSCSI()
	if err != nil {
		return t, err
	}
	from := ep.Markers.Fault - 30*time.Second
	to := ep.Markers.End
	for ts := from; ts < to; ts += time.Second {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", (ts - ep.Markers.Fault).Seconds()),
			fmt.Sprintf("%.0f", ep.Series.At(ts)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fault at 0s, detected +%.1fs, repaired +%.1fs, operator reset: %v",
			(ep.Markers.Detect-ep.Markers.Fault).Seconds(),
			(ep.Markers.Recover-ep.Markers.Fault).Seconds(),
			ep.Tpl.NeedsReset))
	return t, nil
}

// Table1 renders the expected fault load (the paper's Table 1).
func (fg *Figures) Table1() (Table, error) {
	t := Table{
		Name:   "table1",
		Title:  "Failures, MTTFs and MTTRs (4-node cluster)",
		Header: []string{"fault", "MTTF", "MTTR", "components"},
	}
	for _, sp := range faults.Table1(4, 2, true) {
		t.Rows = append(t.Rows, []string{
			sp.Type.String(), sp.MTTF.String(), sp.MTTR.String(), fmt.Sprintf("%d", sp.Components),
		})
	}
	return t, nil
}

// Figure6 reproduces Figure 6: unavailability of COOP with redundant
// hardware added (all modeled from the COOP measurements).
func (fg *Figures) Figure6() (Table, error) {
	t := Table{
		Name:   "figure6",
		Title:  "Effect of redundant hardware on base COOP (modeled)",
		Header: []string{"variant", "unavailability"},
	}
	coop, err := fg.coop()
	if err != nil {
		return t, err
	}
	base, err := coop.Model(fg.Env)
	if err != nil {
		return t, err
	}
	fex, err := PredictResult(fg.eng, coop, VFEX, fg.Opts, fg.Env)
	if err != nil {
		return t, err
	}
	raidSwitch, err := avail.Availability(coop.Offered, coop.Offered,
		avail.WithRAID(avail.WithBackupSwitch(coop.Loads)), fg.Env)
	if err != nil {
		return t, err
	}
	allHW, err := avail.Availability(coop.Offered, coop.Offered,
		avail.WithRAID(avail.WithBackupSwitch(avail.WithRedundantFrontend(PredictLoads(fg.eng, coop, VFEX, fg.Opts)))), fg.Env)
	if err != nil {
		return t, err
	}
	t.Rows = [][]string{
		{"COOP", pct(base.Unavailability)},
		{"FE-X", pct(fex.Unavailability)},
		{"RAID+switch", pct(raidSwitch.Unavailability)},
		{"All HW", pct(allHW.Unavailability)},
	}
	t.Notes = append(t.Notes,
		"paper shape: hardware alone never changes the availability class (the paper's FE-X lands slightly above COOP; ours slightly below — see EXPERIMENTS.md)")
	return t, nil
}

// Figure7 reproduces Figure 7: per-fault-class unavailability of COOP,
// FE-X, MEM, QMON, MQ and FME — each with the modeled-from-COOP
// prediction next to the measured result.
func (fg *Figures) Figure7() (Table, error) {
	t := Table{
		Name:  "figure7",
		Title: "Unavailability by component: modeled-from-COOP vs measured",
	}
	versions := []Version{VCOOP, VFEX, VMEM, VQMON, VMQ, VFME}
	if err := fg.eng.prewarmCampaigns(fg.Opts, fg.Sched, versions...); err != nil {
		return t, err
	}
	coop, err := fg.coop()
	if err != nil {
		return t, err
	}
	kinds := faultKinds(true)
	t.Header = append([]string{"version", "bar", "total"}, kinds...)
	for _, v := range versions {
		// Left bar: modeled from COOP measurements.
		var pred avail.Result
		if v == VCOOP {
			pred, err = coop.Model(fg.Env)
		} else {
			pred, err = PredictResult(fg.eng, coop, v, fg.Opts, fg.Env)
		}
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, figure7Row(string(v), "modeled", pred, kinds))
		// Right bar: measured on the implemented version.
		meas, err := fg.measured(v, fg.Opts)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, figure7Row(string(v), "measured", meas, kinds))
	}
	t.Notes = append(t.Notes,
		"paper shape: MEM misses SCSI/app-hang; QMON regresses on freeze/hang (no re-admission); MQ -87% vs COOP; FME -94%")
	return t, nil
}

func faultKinds(withFE bool) []string {
	var out []string
	for _, sp := range faults.Table1(4, 2, withFE) {
		out = append(out, sp.Type.String())
	}
	sort.Strings(out)
	return out
}

func figure7Row(version, bar string, r avail.Result, kinds []string) []string {
	row := []string{version, bar, pct(r.Unavailability)}
	for _, k := range kinds {
		row = append(row, pct(r.ByFault[k]))
	}
	return row
}

// measured runs (or reuses) a version's campaign and models it.
func (fg *Figures) measured(v Version, o Options) (avail.Result, error) {
	camp, err := fg.eng.Campaign(v, o, fg.Sched)
	if err != nil {
		return avail.Result{}, err
	}
	return camp.Model(fg.Env)
}

// Figure8 reproduces Figure 8: FME and the refinements S-FME, C-MON,
// X-SW and X-SW+RAID. The paper models these from experimental results;
// having implemented S-FME and C-MON, we report measured values for them
// and model only the hardware deltas.
func (fg *Figures) Figure8() (Table, error) {
	t := Table{
		Name:   "figure8",
		Title:  "Applying the remaining approaches",
		Header: []string{"variant", "unavailability", "availability"},
	}
	add := func(name string, u float64) {
		t.Rows = append(t.Rows, []string{name, pct(u), nines(u)})
	}
	if err := fg.eng.prewarmCampaigns(fg.Opts, fg.Sched, VFME, VSFME, VCMON); err != nil {
		return t, err
	}
	fme, err := fg.measured(VFME, fg.Opts)
	if err != nil {
		return t, err
	}
	add("FME", fme.Unavailability)
	sfme, err := fg.measured(VSFME, fg.Opts)
	if err != nil {
		return t, err
	}
	add("S-FME", sfme.Unavailability)
	cmonCamp, err := fg.eng.Campaign(VCMON, fg.Opts, fg.Sched)
	if err != nil {
		return t, err
	}
	cmon, err := cmonCamp.Model(fg.Env)
	if err != nil {
		return t, err
	}
	add("C-MON", cmon.Unavailability)
	xsw, err := avail.Availability(cmonCamp.Offered, cmonCamp.Offered,
		avail.WithBackupSwitch(cmonCamp.Loads), fg.Env)
	if err != nil {
		return t, err
	}
	add("X-SW", xsw.Unavailability)
	xswRaid, err := avail.Availability(cmonCamp.Offered, cmonCamp.Offered,
		avail.WithRAID(avail.WithBackupSwitch(cmonCamp.Loads)), fg.Env)
	if err != nil {
		return t, err
	}
	add("X-SW+RAID", xswRaid.Unavailability)
	t.Notes = append(t.Notes,
		"paper shape: S-FME ~40% below FME; X-SW approaches four nines; RAID adds little")
	return t, nil
}

// Figure9a reproduces Figure 9(a): FME at 8 nodes — the 4-node
// measurements projected by the scaling rules vs direct 8-node
// measurements, with total cluster memory held constant (64 MB/node) and
// scaled (128 MB/node).
func (fg *Figures) Figure9a() (Table, error) {
	t := Table{
		Name:   "figure9a",
		Title:  "Scaling FME to 8 nodes: scaled model vs direct measurement",
		Header: []string{"configuration", "unavailability"},
	}
	jobs := []campaignJob{{v: VFME, o: fg.Opts}}
	for _, mem := range []int64{fg.Opts.CacheBytes / 2, fg.Opts.CacheBytes} {
		o8 := fg.Opts
		o8.Nodes = 8
		o8.CacheBytes = mem
		jobs = append(jobs, campaignJob{v: VFME, o: o8})
	}
	if err := fg.eng.prewarmJobs(fg.Sched, jobs); err != nil {
		return t, err
	}
	camp4, err := fg.eng.Campaign(VFME, fg.Opts, fg.Sched)
	if err != nil {
		return t, err
	}
	scaled := avail.ScaleLoads(camp4.Loads, 2, 0.1)
	sm, err := avail.Availability(2*camp4.Offered, 2*camp4.Offered, scaled, fg.Env)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"FME-8 scaled model (from 4-node)", pct(sm.Unavailability)})

	for _, mem := range []int64{fg.Opts.CacheBytes / 2, fg.Opts.CacheBytes} {
		o8 := fg.Opts
		o8.Nodes = 8
		o8.CacheBytes = mem
		r, err := fg.measured(VFME, o8)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("FME-8 direct, %dMB/node", mem>>20), pct(r.Unavailability)})
	}
	t.Notes = append(t.Notes,
		"paper shape: FME unavailability roughly flat vs 4 nodes; scaled model within ~25% of direct; 128MB/node (everything cached) slightly better")
	return t, nil
}

// Figure9b reproduces Figure 9(b): FME at 8 and 16 nodes (scaled model).
func (fg *Figures) Figure9b() (Table, error) {
	t := Table{
		Name:   "figure9b",
		Title:  "Scaling FME to 8 and 16 nodes (scaled model)",
		Header: []string{"configuration", "unavailability"},
	}
	camp4, err := fg.eng.Campaign(VFME, fg.Opts, fg.Sched)
	if err != nil {
		return t, err
	}
	base, err := camp4.Model(fg.Env)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"FME-4 (measured)", pct(base.Unavailability)})
	for _, k := range []float64{2, 4} {
		r, err := avail.Availability(k*camp4.Offered, k*camp4.Offered,
			avail.ScaleLoads(camp4.Loads, k, 0.1), fg.Env)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("FME-%d scaled model", int(4*k)), pct(r.Unavailability)})
	}
	return t, nil
}

// Figure10 reproduces Figure 10: COOP at 4, 8 and 16 nodes (scaled model).
func (fg *Figures) Figure10() (Table, error) {
	t := Table{
		Name:   "figure10",
		Title:  "Scaling base COOP (scaled model)",
		Header: []string{"configuration", "unavailability"},
	}
	coop, err := fg.coop()
	if err != nil {
		return t, err
	}
	base, err := coop.Model(fg.Env)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"COOP-4 (measured)", pct(base.Unavailability)})
	for _, k := range []float64{2, 4} {
		r, err := avail.Availability(k*coop.Offered, k*coop.Offered,
			avail.ScaleLoads(coop.Loads, k, 0.1), fg.Env)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("COOP-%d scaled model", int(4*k)), pct(r.Unavailability)})
	}
	t.Notes = append(t.Notes, "paper shape: COOP unavailability grows markedly with cluster size; FME stays flat (fig 9)")
	return t, nil
}
