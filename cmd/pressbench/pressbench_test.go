package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cpu.pb.gz from the profile built in this file")

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	st := summarize([]float64{2, 9, 4})
	if st != (stat{Median: 4, Min: 2, Max: 9, N: 3}) {
		t.Errorf("summarize = %+v", st)
	}
}

// The report names the highest percentile that still has ten samples
// beyond it, so a p99 is never read off two points.
func TestHighestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{15, 0.5, 8},
		{40, 0.75, 30},
		{200, 0.95, 190},
		{1000, 0.99, 990},
		{10000, 0.999, 9990},
	} {
		q, v := highestPercentile(ramp(c.n))
		if q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d: got p%g = %v, want p%g = %v", c.n, 100*q, v, 100*c.wantQ, c.wantV)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: "pressbench", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: "sim", StartNs: 10, EndNs: 30, Apportion: true},
		{ID: 3, Parent: 1, Name: "b", Layer: "livenet", StartNs: 20, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Layer: "livenet", StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Layer: "server", StartNs: 25, EndNs: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Span 2 drives the simulator: its 20 ns are split by the CPU shares.
	got := layerSelfMs(spans, map[string]float64{"sim": 0.25, "server": 0.75})
	want := map[string]float64{"pressbench": 50e-6, "sim": 5e-6, "server": (15 + 10) * 1e-6, "livenet": 50e-6}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("layer %s self = %v ms, want %v", l, got[l], w)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"press/internal/sim.(*Sim).Step":                                   "press/internal/sim",
		"runtime.mallocgc":                                                 "runtime",
		"encoding/gob.(*Decoder).Decode":                                   "encoding/gob",
		"press/internal/cnet.(*MsgPool[press/internal/server.ReqMsg]).Get": "press/internal/cnet",
		"main.main.func1":                                                  "main",
		"internal/runtime/syscall.Syscall6":                                "internal/runtime/syscall",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// fixtureProfile is the content of testdata/cpu.pb.gz: stacks leaf first,
// with the cpu nanoseconds of each.
var fixtureProfile = []struct {
	stack []string
	ns    int64
}{
	{[]string{"press/internal/sim.(*Sim).Step", "press/internal/sim.(*Sim).RunUntil", "main.main"}, 300},
	{[]string{"runtime.mallocgc", "press/internal/simnet.(*half).TrySend", "press/internal/sim.(*Sim).Step"}, 150},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 100},
	{[]string{"press/internal/snapio.(*Decoder).Int", "press/internal/snapshot.(*Snap).Restore"}, 50},
	{[]string{"press/internal/template7.Extract", "press/internal/harness.runEpisodeUncached"}, 50},
	{[]string{"encoding/gob.(*Decoder).Decode", "press/internal/livenet.(*tcpConn).readLoop"}, 100},
	{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write"}, 150},
	{[]string{"press/internal/cnet.(*MsgPool[press/internal/server.ReqMsg]).Get", "press/internal/workload.(*Generator).launch"}, 40},
	{[]string{"sort.insertionSort", "press/internal/livenet.(*Env).Multicast"}, 60},
}

// encodeProfile writes the fixture the way runtime/pprof would: one
// function and one location per distinct name, except that the first
// stack's two leaf frames share a location, as inlined frames do; short
// repeated fields unpacked, long ones packed.
func encodeProfile() []byte {
	var strs []string
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	intern("")
	var out []byte
	varint := func(b []byte, x uint64) []byte {
		for x >= 0x80 {
			b = append(b, byte(x)|0x80)
			x >>= 7
		}
		return append(b, byte(x))
	}
	field := func(b []byte, num int, x uint64) []byte { return varint(varint(b, uint64(num)<<3), x) }
	bytesField := func(b []byte, num int, data []byte) []byte {
		return append(varint(varint(b, uint64(num)<<3|2), uint64(len(data))), data...)
	}
	ints := func(b []byte, num int, xs []uint64) []byte {
		if len(xs) <= 2 {
			for _, x := range xs {
				b = field(b, num, x)
			}
			return b
		}
		var packed []byte
		for _, x := range xs {
			packed = varint(packed, x)
		}
		return bytesField(b, num, packed)
	}

	funcID := map[string]uint64{}
	var funcs, locs []byte
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		funcs = bytesField(funcs, 5, field(field(nil, 1, id), 2, intern(name)))
		return id
	}
	nextLoc := uint64(1)
	loc := func(names ...string) uint64 {
		msg := field(nil, 1, nextLoc)
		for _, n := range names {
			msg = bytesField(msg, 4, field(nil, 1, fn(n)))
		}
		locs = bytesField(locs, 4, msg)
		nextLoc++
		return nextLoc - 1
	}
	for i, s := range fixtureProfile {
		var ids []uint64
		stack := s.stack
		if i == 0 {
			ids = append(ids, loc(stack[0], stack[1]))
			stack = stack[2:]
		}
		for _, n := range stack {
			ids = append(ids, loc(n))
		}
		sample := ints(nil, 1, ids)
		sample = ints(sample, 2, []uint64{1, uint64(s.ns)})
		out = bytesField(out, 2, sample)
	}
	out = append(out, locs...)
	out = append(out, funcs...)
	for _, s := range strs {
		out = bytesField(out, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(out)
	zw.Close()
	return gz.Bytes()
}

func TestProfileAggregation(t *testing.T) {
	const path = "testdata/cpu.pb.gz"
	if *update {
		if err := os.WriteFile(path, encodeProfile(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(fixtureProfile) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(fixtureProfile))
	}
	for i, s := range samples {
		want := fixtureProfile[i]
		if s.value != want.ns || strings.Join(s.stack, ";") != strings.Join(want.stack, ";") {
			t.Errorf("sample %d = %v %d, want %v %d", i, s.stack, s.value, want.stack, want.ns)
		}
	}
	shares, gc, total := cpuShares(samples)
	if total != 1000 {
		t.Fatalf("total = %d ns, want 1000", total)
	}
	want := map[string]float64{
		"sim": 0.3, "goruntime": 0.25, "snapshot": 0.05, "harness": 0.05,
		"livenet.gob": 0.1, "livenet.net_syscall": 0.15, "other": 0.1,
	}
	sum := 0.0
	for _, l := range shareLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if gc != 0.1 {
		t.Errorf("gc fraction = %v, want 0.1", gc)
	}
	if _, err := parseProfile(data[:len(data)/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the catalog in spec.go must say the same thing, in
// both directions.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bm.Command, " ") != "go run ./cmd/pressbench" || strings.Join(bm.Paths, " ") != "cmd/pressbench" {
		t.Errorf("command %v, paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go has %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		byName := specByName(want)
		for _, m := range got {
			s, ok := byName[m.Name]
			if !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not in spec.go", kind, m.Name)
				continue
			}
			delete(byName, m.Name)
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Unit != s.Unit || m.Better != s.Better {
				t.Errorf("%s %s: BENCHMARK.json says %s/%s, spec.go says %s/%s", kind, m.Name, m.Unit, m.Better, s.Unit, s.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			case bounded && (m.Bound == nil || *m.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s %s: bound %v, spec.go says %v", kind, m.Name, m.Bound, s.Bound)
			}
		}
		for name := range byName {
			t.Errorf("%s: %s is in spec.go but not in BENCHMARK.json", kind, name)
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
	}
}

// Every workload's code path, traced, at a size that fits the test
// budget. The numbers mean nothing; the names must be exactly the
// catalog's: nothing emitted that spec.go does not list, nothing listed
// for a workload that the workload does not emit.
func TestSmokeEmitsTheCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's code path, a few seconds")
	}
	if _, err := raiseFDLimit(); err != nil {
		t.Fatal(err)
	}
	e2e, layers := specByName(endToEnd), specByName(perLayer)
	// What the supervisor adds from outside the measuring process.
	outside := map[string]bool{"peak_rss_mb": true}
	for _, w := range workloads {
		res := runners[w.Name](runConfig{Workload: w.Name, Seed: 1, Seconds: 1, Trace: true, Smoke: true})
		if res.FailedOps != 0 || len(res.Errors) != 0 || res.Ops == 0 {
			t.Errorf("%s: ops %d, failed %d, errors %v", w.Name, res.Ops, res.FailedOps, res.Errors)
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: a traced run recorded no spans", w.Name)
		}
		for name := range res.Samples {
			_, isE2E := e2e[name]
			s, isLayer := layers[name]
			switch {
			case !isE2E && !isLayer:
				t.Errorf("%s emitted %s, which spec.go does not list", w.Name, name)
			case isLayer && !s.definedOn(w.Name) && !strings.HasSuffix(name, ".cpu_share"):
				t.Errorf("%s emitted %s, which spec.go defines only on %v", w.Name, name, s.On)
			}
		}
		for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			live3Overhead := w.Name == wLive3 && s.Name == "pressbench.trace_overhead" // needs the supervisor's second child
			if s.definedOn(w.Name) && len(res.Samples[s.Name]) == 0 && !outside[s.Name] && !live3Overhead {
				t.Errorf("%s did not emit %s", w.Name, s.Name)
			}
		}
	}
}

// A child that dies is a row with every op failed and the tail of its
// stderr, never a hang or a missing row. The test binary stands in for a
// crashing child: it does not know the -child flag.
func TestCrashedChildIsARow(t *testing.T) {
	row := supervise(runConfig{Workload: wScale256, Seed: 1, Seconds: 1}, environment{FDLimit: minLiveFDs})
	if row.Ops != 1 || row.FailedOps != 1 || row.correct(endToEnd) {
		t.Errorf("row = %+v", row)
	}
	if len(row.Errors) != 1 || !strings.Contains(row.Errors[0], "exit status 2; stderr tail") {
		t.Errorf("errors = %q", row.Errors)
	}
	row = supervise(runConfig{Workload: wLive3, Seed: 1, Seconds: 1}, environment{FDLimit: 1024})
	if row.Children != 0 || row.FailedOps != liveRequests || !strings.Contains(strings.Join(row.Errors, ""), "RLIMIT_NOFILE") {
		t.Errorf("live3 pre-flight row = %+v", row)
	}
}
