package main

// The catalog of what pressbench runs and reports. BENCHMARK.json at the
// repository root carries the same names, units, directions and bounds;
// the package test holds the two in step.

// Workload names. Later issues refer to the workloads by these.
const (
	wCampaign4 = "campaign4"
	wScale256  = "scale256"
	wForkChaos = "forkchaos"
	wLive3     = "live3"
)

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{wCampaign4, "Faithful suite at the paper's 4 nodes: COOP and FME Table-1 campaigns plus the phase-2 model, 17 small cache-resident worlds built and torn down per repeat, so kernel and allocator dominate"},
	{wScale256, "Scalable suite at 256 nodes under a crash, a link flap and a hang: 270 MB of model state and 66k queued events, out of cache, where server, simnet and machine carry the cost"},
	{wForkChaos, "128 chaos seeds forked from one warm COOP snapshot: the same layers as campaign4 used restore-heavy, with short fault horizons and invariant checks"},
	{wLive3, "pressd's 3-node topology on loopback TCP under a closed loop of nproc clients: the simulator does nothing and livenet, gob and goroutine hand-offs carry the same server code"},
}

// metricSpec describes one reported number. Clock says what the number
// is made of: host wall time, host CPU time, the simulated clock (exact
// per seed), or a count. On lists the workloads that define the metric;
// nil means all four. Moves is the prediction the guide asks for: which
// end-to-end metric a change in this layer metric should move, and where.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	Clock  string
	On     []string
	Moves  string
}

func (m metricSpec) definedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	simOnly   = []string{wCampaign4, wScale256, wForkChaos}
	onCamp    = []string{wCampaign4}
	onScale   = []string{wScale256}
	onFork    = []string{wForkChaos}
	onLive    = []string{wLive3}
	bareSmall = onCamp  // rigs whose state is cache-resident, like campaign4's worlds
	bareWide  = onScale // rigs at scale256's occupancy and fan-out
)

// endToEnd are the numbers a user of the system sees. Every one is
// defined on every workload and is never 0. Host times are at yardstick
// speed 1 (yardstick.go); even so their bounds are the widest the
// benchmark contract allows, three times the spread measured on the
// shared 2-core box the numbers were taken on (README.md, "Noise").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Clock: "count"},
	{Name: "availability", Unit: "fraction", Better: "higher", Bound: 0.03, Clock: "simulated (live3: host)"},
	{Name: "served_rps", Unit: "req/s", Better: "higher", Bound: 0.25, Clock: "simulated (live3: host)"},
}

func shareSpec(layer, moves string) metricSpec {
	return metricSpec{Name: layer + ".cpu_share", Unit: "fraction", Better: "lower", Clock: "host-CPU", Moves: moves}
}

func perEvent(layer string) metricSpec {
	return metricSpec{Name: layer + ".self_ns_per_event", Unit: "ns", Better: "lower", Clock: "host-CPU", On: onScale,
		Moves: "wall_s on scale256"}
}

// perLayer are the numbers of single layers, from the traced run. They
// have no bound.
var perLayer = []metricSpec{
	// CPU attribution: share of CPU-profile samples inside the timed
	// windows whose leaf frame is in the layer.
	shareSpec("sim", "wall_s on forkchaos and campaign4, where the share is largest"),
	shareSpec("simnet", "wall_s on scale256"),
	shareSpec("machine", "wall_s on scale256"),
	shareSpec("server", "wall_s on scale256"),
	shareSpec("simdisk", "none predicted: share under 2%"),
	shareSpec("workload", "wall_s on scale256"),
	shareSpec("trace", "none predicted: share under 2%"),
	shareSpec("metrics", "none predicted: share under 2%"),
	shareSpec("membership", "none predicted: share under 2% even under FME"),
	shareSpec("frontend", "none predicted: share under 2% even in campaign4's FME half"),
	shareSpec("qmon", "none predicted: share under 2%"),
	shareSpec("fme", "none predicted: share under 2%"),
	shareSpec("harness", "none predicted: the harness drives, its own frames are rarely the leaf"),
	shareSpec("chaos", "none predicted: share under 2%"),
	shareSpec("snapshot", "none predicted: share under 2% even with 128 restores per repeat"),
	shareSpec("livenet", "wall_s on live3"),
	shareSpec("livenet.gob", "wall_s on live3"),
	shareSpec("livenet.net_syscall", "wall_s on live3"),
	shareSpec("goruntime", "wall_s on campaign4 and forkchaos, a third of their CPU; half of live3's"),
	{Name: "goruntime.gc_cpu_fraction", Unit: "fraction", Better: "lower", Clock: "host-CPU", Moves: "wall_s on campaign4 and forkchaos"},
	shareSpec("other", "none predicted"),
	{Name: "goruntime.cpu_s", Unit: "s", Better: "lower", Clock: "host-CPU", Moves: "wall_s; the excess over wall_s is what the collector spends on the other core"},
	perEvent("sim"), perEvent("simnet"), perEvent("machine"), perEvent("server"), perEvent("workload"), perEvent("goruntime"),

	// Counts read at the same boundaries (exact per seed). On campaign4
	// and forkchaos the kernel, workload, server and disk counts come
	// from one fault-free census window on the workload's own world,
	// because Episode and chaos.Result do not expose the simulator.
	{Name: "sim.events_fired", Unit: "count", Better: "lower", Clock: "count", On: simOnly, Moves: "wall_s, with sim.events_per_s, on scale256"},
	{Name: "sim.queue_high_water", Unit: "count", Better: "lower", Clock: "count", On: simOnly, Moves: "peak_rss_mb on scale256"},
	{Name: "sim.events_per_request", Unit: "count", Better: "lower", Clock: "count", On: simOnly, Moves: "wall_s on every sim workload"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Clock: "host", On: onScale, Moves: "is wall_s on scale256, in the unit ROADMAP speaks in"},
	{Name: "workload.offered", Unit: "count", Better: "higher", Clock: "count", Moves: "served_rps"},
	{Name: "workload.succeeded", Unit: "count", Better: "higher", Clock: "count", Moves: "availability and served_rps"},
	{Name: "workload.connect_failures", Unit: "count", Better: "lower", Clock: "count", On: []string{wCampaign4, wScale256, wLive3}, Moves: "availability"},
	{Name: "workload.complete_failures", Unit: "count", Better: "lower", Clock: "count", On: []string{wCampaign4, wScale256, wLive3}, Moves: "availability"},
	{Name: "workload.latency_mean_ms", Unit: "ms", Better: "lower", Clock: "simulated", On: onScale, Moves: "none: the only latency the simulator exposes"},
	{Name: "server.local_hit_ratio", Unit: "fraction", Better: "higher", Clock: "count", Moves: "served_rps; explains sim.events_per_request"},
	{Name: "server.remote_served_ratio", Unit: "fraction", Better: "lower", Clock: "count", Moves: "sim.events_per_request on scale256"},
	{Name: "server.disk_reads_per_request", Unit: "count", Better: "lower", Clock: "count", Moves: "served_rps"},
	{Name: "server.forwards_per_request", Unit: "count", Better: "lower", Clock: "count", Moves: "sim.events_per_request on scale256"},
	{Name: "server.rerouted", Unit: "count", Better: "lower", Clock: "count", Moves: "availability under overload"},
	{Name: "simdisk.reads", Unit: "count", Better: "lower", Clock: "count", On: simOnly, Moves: "served_rps"},
	{Name: "metrics.log_events", Unit: "count", Better: "lower", Clock: "count", Moves: "peak_rss_mb; metrics.cpu_share"},
	{Name: "harness.unavail_pct_coop", Unit: "%", Better: "lower", Clock: "simulated", On: onCamp, Moves: "none: the paper's COOP bar"},
	{Name: "harness.unavail_pct_fme", Unit: "%", Better: "lower", Clock: "simulated", On: onCamp, Moves: "is 100(1-availability) on campaign4"},
	{Name: "harness.detect_s_mean", Unit: "s", Better: "lower", Clock: "simulated", On: onCamp, Moves: "availability on campaign4"},
	{Name: "chaos.violating_seeds", Unit: "count", Better: "lower", Clock: "count", On: onFork, Moves: "none: findings of the campaign, not failures of the benchmark"},
	{Name: "chaos.operator_resets", Unit: "count", Better: "lower", Clock: "count", On: onFork, Moves: "availability on forkchaos"},
	{Name: "snapshot.bytes", Unit: "count", Better: "lower", Clock: "count", On: onFork, Moves: "snapshot.restore_ms, so wall_s on forkchaos"},
	{Name: "goruntime.allocs_per_event", Unit: "count", Better: "lower", Clock: "count", On: onScale, Moves: "wall_s on scale256 through GC"},
	{Name: "goruntime.allocs_per_repeat", Unit: "count", Better: "lower", Clock: "count", Moves: "wall_s on campaign4 through GC"},
	{Name: "goruntime.num_gc", Unit: "count", Better: "lower", Clock: "count", Moves: "wall_s on campaign4 and forkchaos; varies 2x between identical repeats"},
	{Name: "goruntime.live_heap_mb", Unit: "MB", Better: "lower", Clock: "count", Moves: "peak_rss_mb"},
	{Name: "harness.heap_kb_per_node", Unit: "KB", Better: "lower", Clock: "count", On: onScale, Moves: "peak_rss_mb on scale256"},

	// Spans around calls pressbench makes (host time).
	{Name: "harness.build_ms", Unit: "ms", Better: "lower", Clock: "host", On: onScale, Moves: "setup_s on scale256"},
	{Name: "harness.saturation_probe_s", Unit: "s", Better: "lower", Clock: "host", On: onCamp, Moves: "wall_s and setup_s on campaign4"},
	{Name: "harness.episode_s_p50", Unit: "s", Better: "lower", Clock: "host", On: onCamp, Moves: "wall_s on campaign4"},
	{Name: "harness.cold_repeat_ratio", Unit: "ratio", Better: "lower", Clock: "host", On: onCamp, Moves: "setup_s on campaign4"},
	{Name: "avail.model_us", Unit: "us", Better: "lower", Clock: "host", On: onCamp, Moves: "none predicted: microseconds per repeat"},
	{Name: "template7.extract_us", Unit: "us", Better: "lower", Clock: "host", On: onCamp, Moves: "none predicted: microseconds per episode"},
	{Name: "chaos.generate_us", Unit: "us", Better: "lower", Clock: "host", On: onFork, Moves: "wall_s on forkchaos"},
	{Name: "chaos.check_us", Unit: "us", Better: "lower", Clock: "host", On: onFork, Moves: "wall_s on forkchaos"},
	{Name: "chaos.resume_ms_p50", Unit: "ms", Better: "lower", Clock: "host", On: onFork, Moves: "wall_s on forkchaos"},
	{Name: "snapshot.take_ms", Unit: "ms", Better: "lower", Clock: "host", On: onFork, Moves: "setup_s on forkchaos"},
	{Name: "snapshot.load_ms", Unit: "ms", Better: "lower", Clock: "host", On: onFork, Moves: "none predicted: not on the timed path"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower", Clock: "host", On: onFork, Moves: "wall_s on forkchaos"},
	{Name: "snapshot.fork_speedup", Unit: "ratio", Better: "higher", Clock: "host", On: onFork, Moves: "none: what forking saves over cold starts"},

	// Bare-layer rigs on a bare kernel, exported API only.
	{Name: "sim.kernel_events_per_s", Unit: "1/s", Better: "higher", Clock: "host", On: bareSmall, Moves: "wall_s on campaign4 and forkchaos"},
	{Name: "sim.kernel_events_per_s_64k", Unit: "1/s", Better: "higher", Clock: "host", On: bareWide, Moves: "wall_s on scale256"},
	{Name: "sim.kernel_allocs_per_event", Unit: "count", Better: "lower", Clock: "count", On: bareSmall, Moves: "goruntime.cpu_share"},
	{Name: "sim.timer_stop_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareSmall, Moves: "wall_s on campaign4"},
	{Name: "simnet.datagram_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareWide, Moves: "wall_s on scale256"},
	{Name: "simnet.stream_msg_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareWide, Moves: "wall_s on every sim workload"},
	{Name: "simnet.multicast_ns_per_rcpt", Unit: "ns", Better: "lower", Clock: "host", On: bareWide, Moves: "wall_s on scale256 only"},
	{Name: "simnet.multicast_ns_per_rcpt_unbatched", Unit: "ns", Better: "lower", Clock: "host", On: bareWide, Moves: "wall_s on campaign4 (Faithful keeps the unbatched path)"},
	{Name: "simdisk.read_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareSmall, Moves: "none predicted: simdisk share under 2%"},
	{Name: "machine.msg_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareWide, Moves: "wall_s on scale256"},
	{Name: "metrics.emit_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareSmall, Moves: "wall_s on forkchaos"},
	{Name: "metrics.series_add_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareSmall, Moves: "none predicted"},
	{Name: "trace.sample_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareSmall, Moves: "none predicted: once per request"},
	{Name: "workload.request_ns", Unit: "ns", Better: "lower", Clock: "host", On: bareSmall, Moves: "wall_s on every sim workload"},
	{Name: "livenet.rtt_us", Unit: "us", Better: "lower", Clock: "host", On: onLive, Moves: "wall_s and served_rps on live3"},

	// The live runtime.
	{Name: "livenet.req_per_s", Unit: "1/s", Better: "higher", Clock: "host", On: onLive, Moves: "is served_rps on live3"},
	{Name: "livenet.p50_ms", Unit: "ms", Better: "lower", Clock: "host", On: onLive, Moves: "wall_s on live3"},
	{Name: "livenet.p99_ms", Unit: "ms", Better: "lower", Clock: "host", On: onLive, Moves: "availability on live3 once it nears the 50 ms limit"},
	{Name: "livenet.cpu_us_per_req", Unit: "us", Better: "lower", Clock: "host-CPU", On: onLive, Moves: "wall_s on live3: what a request costs when nothing waits"},
	{Name: "livenet.fds_per_request", Unit: "count", Better: "lower", Clock: "count", On: onLive, Moves: "peak_rss_mb on live3; bounds the request budget"},
	{Name: "livenet.formation_s", Unit: "s", Better: "lower", Clock: "host", On: onLive, Moves: "setup_s on live3"},
	{Name: "livenet.goroutines_end", Unit: "count", Better: "lower", Clock: "count", On: onLive, Moves: "peak_rss_mb on live3"},

	{Name: "pressbench.trace_overhead", Unit: "ratio", Better: "lower", Clock: "host", Moves: "none: traced wall over untraced wall in the same run"},
	{Name: "pressbench.host_slowdown", Unit: "ratio", Better: "lower", Clock: "host", Moves: "none: the yardstick's time over nominal, the divisor of wall_s and setup_s"},
	{Name: "pressbench.raw_wall_s", Unit: "s", Better: "lower", Clock: "host", Moves: "is wall_s as the clock read it, before the yardstick"},
}

// contextMetrics are the per-layer metrics printed under an untraced row too:
// without them a reader cannot get from wall_s back to the clock.
var contextMetrics = []string{"pressbench.host_slowdown", "pressbench.raw_wall_s"}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
