// Package press is the public facade of this repository: a from-scratch
// reproduction of "Quantifying and Improving the Availability of
// High-Performance Cluster-Based Internet Services" (Nagaraja, Krishnan,
// Bianchini, Martin, Nguyen — SC 2003).
//
// The library contains, under internal/, the paper's entire stack — the
// PRESS cooperative cluster web server, the availability subsystems
// (front-end fail-over, group membership, queue monitoring, Fault Model
// Enforcement), a deterministic discrete-event cluster substrate with a
// Mendosus-style fault injector, and the two-phase quantification
// methodology (7-stage templates + analytic performability model). This
// package re-exports the handful of types and entry points a downstream
// user needs:
//
//   - Build an experiment handle over any studied version and drive it:
//     New (with WithVersion / WithOptions / WithWorkers options), Version
//     constants, Options, the built Deployment.
//   - Run fault-injection episodes and whole campaigns on the handle:
//     Cluster.RunEpisode, Cluster.RunCampaign, EpisodeSchedule.
//   - Quantify: Template, FaultLoad, ModelAvailability, the §6.3 scaling
//     rules and the RAID and backup-switch MTTF transforms.
//   - Regenerate the paper's tables and figures: NewFigures.
//
// See DESIGN.md for the system inventory and the per-experiment index,
// and EXPERIMENTS.md for paper-vs-measured results.
package press

import (
	"runtime"
	"sync/atomic"

	"press/internal/avail"
	"press/internal/chaos"
	"press/internal/faults"
	"press/internal/harness"
	"press/internal/template7"
)

// Version identifies a studied server configuration.
type Version = harness.Version

// The paper's configurations.
const (
	INDEP    = harness.VINDEP
	FEXINDEP = harness.VFEXINDEP
	COOP     = harness.VCOOP
	FEX      = harness.VFEX
	MEM      = harness.VMEM
	QMON     = harness.VQMON
	MQ       = harness.VMQ
	FME      = harness.VFME
	SFME     = harness.VSFME
	CMON     = harness.VCMON
)

// Options parameterizes an experiment world.
type Options = harness.Options

// ProtocolSuite selects which protocol family the cluster speaks.
type ProtocolSuite = harness.ProtocolSuite

// The protocol suites: Faithful is the paper's 4-node-era protocols,
// byte-identical to the golden dumps; Scalable swaps in the gossip
// membership mode and the sharded cache directory for large-N runs.
const (
	Faithful = harness.Faithful
	Scalable = harness.Scalable
)

// ParseProtocolSuite maps a CLI spelling ("faithful", "scalable") onto
// the suite constant.
func ParseProtocolSuite(s string) (ProtocolSuite, error) { return harness.ParseProtocolSuite(s) }

// Deployment is a built simulated deployment: the sim, the machines, the
// workload generator and the injector, ready to drive. (This type was
// previously exported as Cluster; Cluster is now the experiment handle.)
type Deployment = harness.Cluster

// EpisodeSchedule controls a fault-injection episode.
type EpisodeSchedule = harness.EpisodeSchedule

// Episode is one injection run's outcome.
type Episode = harness.Episode

// CampaignResult is a full phase-1 measurement set.
type CampaignResult = harness.CampaignResult

// Figures regenerates the paper's tables and figures.
type Figures = harness.Figures

// Table is a rendered figure/table.
type Table = harness.Table

// FaultType enumerates the injectable fault classes of Table 1.
type FaultType = faults.Type

// The fault classes.
const (
	LinkDown        = faults.LinkDown
	SwitchDown      = faults.SwitchDown
	SCSITimeout     = faults.SCSITimeout
	NodeCrash       = faults.NodeCrash
	NodeFreeze      = faults.NodeFreeze
	AppCrash        = faults.AppCrash
	AppHang         = faults.AppHang
	FrontendFailure = faults.FrontendFailure
)

// Template is the paper's 7-stage piecewise-linear fault-episode shape.
type Template = template7.Template

// FaultLoad pairs a fault class's expected rate with its template.
type FaultLoad = avail.FaultLoad

// ModelEnv holds the evaluator-supplied parameters of the phase-2 model.
type ModelEnv = avail.Env

// ModelResult is the phase-2 model output (AT, AA, unavailability).
type ModelResult = avail.Result

// Cluster is the root experiment handle: one studied version, one set of
// world options, and a private experiment engine (worker pool + memo
// tables). Two Clusters share nothing — each caches its own campaigns
// and saturation probes and bounds its own simulator concurrency — so a
// library user can run independent experiments with independent
// lifetimes. An episode is simulated on every call. The package-level
// entry points each build an engine of their own per call (NewFigures one
// per Figures) and cache nothing across calls.
//
//	c := press.New(press.WithVersion(press.FME), press.WithOptions(press.Options{Seed: 7}), press.WithWorkers(4))
//	camp, err := c.RunCampaign(press.FastSchedule())
type Cluster struct {
	v   Version
	o   Options
	eng *harness.Engine
}

// Option configures a Cluster handle at construction.
type Option func(*clusterConfig)

// clusterConfig collects construction parameters before the engine is
// built, so options compose in any order.
type clusterConfig struct {
	v       Version
	o       Options
	workers int
}

// WithVersion selects the studied server configuration (default COOP).
func WithVersion(v Version) Option { return func(c *clusterConfig) { c.v = v } }

// WithWorkers bounds how many simulators this handle's private engine
// runs concurrently (default GOMAXPROCS; 1 forces serial execution).
func WithWorkers(n int) Option { return func(c *clusterConfig) { c.workers = n } }

// WithOptions replaces the full option set (default: the paper's
// 4-node Faithful world at seed 1; a zero field takes its default). Seed,
// node count and protocol suite are all set through it.
func WithOptions(o Options) Option { return func(c *clusterConfig) { c.o = o } }

// globalWorkers is the worker bound SetGlobalWorkers last set (0:
// GOMAXPROCS). It is the only package-level state: every package-level
// entry point builds its own engine with this bound.
var globalWorkers atomic.Int64

// engine builds the engine one package-level call runs on.
func engine() *harness.Engine { return harness.NewEngine(int(globalWorkers.Load())) }

// New builds an experiment handle with its own engine and caches.
func New(opts ...Option) *Cluster {
	cfg := clusterConfig{v: COOP, o: Options{Seed: 1}}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Cluster{v: cfg.v, o: cfg.o, eng: harness.NewEngine(cfg.workers)}
}

// Build assembles the simulated deployment; drive it via its Sim, Gen
// and Injector fields. The 90%-of-saturation load resolution is memoized
// on the handle's engine.
func (c *Cluster) Build() *Deployment { return c.eng.Build(c.v, c.o) }

// Saturation measures (memoized on the handle) the maximum throughput.
func (c *Cluster) Saturation() float64 { return c.eng.Saturation(c.v, c.o) }

// RunEpisode performs one single-fault phase-1 measurement.
func (c *Cluster) RunEpisode(f FaultType, component int, s EpisodeSchedule) (Episode, error) {
	return c.eng.RunEpisode(c.v, c.o, f, component, s)
}

// RunCampaign measures the full Table 1 fault load.
func (c *Cluster) RunCampaign(s EpisodeSchedule) (CampaignResult, error) {
	return c.eng.Campaign(c.v, c.o, s)
}

// ModelAvailability evaluates the phase-2 analytic model.
func ModelAvailability(w0, offered float64, loads []FaultLoad, env ModelEnv) (ModelResult, error) {
	return avail.Availability(w0, offered, loads, env)
}

// ScaleLoads applies the paper's §6.3 cluster-size scaling rules.
func ScaleLoads(loads []FaultLoad, k float64) []FaultLoad {
	return avail.ScaleLoads(loads, k, 0.1)
}

// WithRAID and WithBackupSwitch apply the §6.1 hardware-redundancy MTTF
// transforms.
func WithRAID(loads []FaultLoad) []FaultLoad         { return avail.WithRAID(loads) }
func WithBackupSwitch(loads []FaultLoad) []FaultLoad { return avail.WithBackupSwitch(loads) }

// DefaultModelEnv returns the default evaluator parameters.
func DefaultModelEnv() ModelEnv { return avail.DefaultEnv() }

// NewFigures builds the generator for every paper table and figure, on an
// engine of its own: the figures of one Figures share its campaigns and
// saturation probes, and two Figures share nothing.
func NewFigures(o Options) *Figures { return harness.NewFigures(engine(), o) }

// Table1 returns the paper's expected fault load for an n-node cluster.
func Table1(n, disksPerNode int, withFrontend bool) []faults.Spec {
	return faults.Table1(n, disksPerNode, withFrontend)
}

// FastOptions returns the reduced-scale profile used by tests and quick
// demos; FastSchedule the matching episode schedule.
func FastOptions(seed int64) Options { return harness.FastOptions(seed) }
func FastSchedule() EpisodeSchedule  { return harness.FastSchedule() }
func AllMeasuredVersions() []Version { return harness.AllMeasuredVersions() }

// StochasticConfig and StochasticResult parameterize and report the
// whole-fault-load validation run (see harness.StochasticRun): every
// Table 1 class arrives as a Poisson process at accelerated rates, and
// the measured availability is compared with the analytic prediction.
type StochasticConfig = harness.StochasticConfig

// StochasticResult is the outcome of RunStochastic.
type StochasticResult = harness.StochasticResult

// RunStochastic executes the model-validation run for one version.
func RunStochastic(v Version, o Options, s EpisodeSchedule, cfg StochasticConfig) (StochasticResult, error) {
	return harness.StochasticRun(engine(), v, o, s, cfg)
}

// ResetGlobalCaches does nothing: no package-level entry point caches
// anything across calls. It stays because cmd/pressbench calls it; a
// handle's caches go with the handle.
func ResetGlobalCaches() {}

// SetGlobalWorkers bounds how many simulators each engine the
// package-level entry points build (figures, chaos campaigns, stochastic
// runs) runs at once, and returns the previous bound. n < 1 means one. It
// stays because cmd/pressbench calls it; Cluster handles carry their own
// bound, set once by WithWorkers.
func SetGlobalWorkers(n int) int {
	prev := int(globalWorkers.Swap(int64(max(n, 1))))
	if prev == 0 {
		prev = runtime.GOMAXPROCS(0)
	}
	return prev
}

// Chaos campaigns (internal/chaos): seeded multi-fault schedules played
// against a version, judged by a cluster-invariant catalog, with
// violation shrinking and runnable repro files. See DESIGN.md §10.

// ChaosEntry is one scheduled fault (inject at At, repair Duration
// later; FlapOn/FlapOff make it intermittent).
type ChaosEntry = chaos.Entry

// ChaosSchedule is a deterministic multi-fault schedule.
type ChaosSchedule = chaos.Schedule

// ChaosGenConfig shapes the seeded schedule generator.
type ChaosGenConfig = chaos.GenConfig

// ChaosRunConfig shapes one chaos run around its schedule.
type ChaosRunConfig = chaos.RunConfig

// ChaosResult is everything one chaos run measured.
type ChaosResult = chaos.Result

// ChaosInvariant is one cluster property a run must preserve.
type ChaosInvariant = chaos.Invariant

// ChaosViolation is one failed invariant.
type ChaosViolation = chaos.Violation

// ChaosCampaignConfig drives a multi-seed chaos campaign.
type ChaosCampaignConfig = chaos.CampaignConfig

// ChaosCampaignSummary aggregates a campaign's per-seed outcomes.
type ChaosCampaignSummary = chaos.CampaignSummary

// ChaosRepro is a runnable reproduction of an invariant violation.
type ChaosRepro = chaos.Repro

// GenerateChaos draws the seeded fault schedule for a version.
func GenerateChaos(seed int64, v Version, o Options, cfg ChaosGenConfig) ChaosSchedule {
	return chaos.Generate(seed, v, o, cfg)
}

// ChaosInvariants returns the standing invariant catalog.
func ChaosInvariants() []ChaosInvariant { return chaos.DefaultInvariants() }

// CheckChaos judges a result against an invariant catalog.
func CheckChaos(r *ChaosResult, invs []ChaosInvariant) []ChaosViolation {
	return chaos.Check(r, invs)
}

// RunChaosCampaign generates, runs and judges one schedule per seed.
func RunChaosCampaign(v Version, o Options, cfg ChaosCampaignConfig) ChaosCampaignSummary {
	return chaos.RunCampaign(engine(), v, o, cfg)
}

// NewChaosRepro packages a violation into a replayable repro body;
// LoadChaosRepro parses one back; ChaosSeeds returns the fixed 1..n
// campaign seed set.
func NewChaosRepro(v Version, o Options, rc ChaosRunConfig, sched ChaosSchedule, viol ChaosViolation) ChaosRepro {
	return chaos.NewRepro(v, o, rc, sched, viol)
}
func LoadChaosRepro(data []byte) (ChaosRepro, error) { return chaos.LoadRepro(data) }
func ChaosSeeds(n int) []int64                       { return chaos.Seeds(n) }

// Snapshot/fork engine (harness.Snap): checkpoint a fully warmed
// deployment into a compact hash-addressed blob and rehydrate any number
// of independent forks. A restored world continues byte-identically —
// same event log, same metrics series — which is what lets whole chaos
// campaigns pay the warm ramp once instead of per seed. Every measured
// version and both protocol suites are covered. See DESIGN.md §13.

// Snapshot is one captured world: envelope (version, options, resolved
// offered load, capture time) plus the serialized world stream, content-
// addressed by its sha256 hash.
type Snapshot = harness.Snap

// TakeSnapshot captures a deployment's complete state at the current
// simulated instant.
func TakeSnapshot(d *Deployment) (*Snapshot, error) { return harness.Take(d, nil) }

// LoadSnapshot wraps a serialized snapshot (Snapshot.Bytes), validating
// its envelope.
func LoadSnapshot(data []byte) (*Snapshot, error) { return harness.Load(data) }

// RestoreSnapshot rehydrates one independent deployment from the
// snapshot; the snapshot is reusable and can be restored any number of
// times.
func RestoreSnapshot(s *Snapshot) (*Deployment, error) { return s.Restore(nil) }

// WarmChaosSnapshot builds and warms one world for (v, o) and captures
// it at the pre-arm point (warmup + settle). Any chaos schedule can then
// be forked onto it.
func WarmChaosSnapshot(v Version, o Options, rc ChaosRunConfig) (*Snapshot, error) {
	return chaos.WarmSnapshot(engine(), v, o, rc)
}

// RunChaosCampaignFromSnapshot plays a warm-fork campaign against an
// already-captured (possibly disk-loaded) warm snapshot.
func RunChaosCampaignFromSnapshot(s *Snapshot, cfg ChaosCampaignConfig) (ChaosCampaignSummary, error) {
	return chaos.RunCampaignFromSnapshot(engine(), s, cfg)
}
