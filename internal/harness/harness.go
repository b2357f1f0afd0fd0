// Package harness assembles and runs the paper's experiments end to end:
// it composes every studied server version (§3–§6) from the substrate and
// subsystem packages, calibrates the 90%-of-saturation offered load,
// executes single-fault injection episodes, extracts 7-stage templates,
// feeds the phase-2 model, and renders every table and figure of the
// evaluation (see DESIGN.md's per-experiment index).
package harness

import (
	"fmt"
	"math"
	"slices"
	"time"

	"press/internal/cnet"
	"press/internal/faults"
	"press/internal/fme"
	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/snapio"
	"press/internal/trace"
	"press/internal/workload"
)

// Version names one studied configuration.
type Version string

// The paper's configurations (§3, §4, §6).
const (
	VINDEP    Version = "INDEP"      // independent servers, DNS round-robin
	VFEXINDEP Version = "FE-X-INDEP" // independent + front-end pair + extra node
	VCOOP     Version = "COOP"       // base cooperative PRESS
	VFEX      Version = "FE-X"       // COOP + front-end pair + extra node
	VMEM      Version = "MEM"        // FE-X + group membership (ring detector off)
	VQMON     Version = "QMON"       // FE-X + queue monitoring (ring detector off)
	VMQ       Version = "MQ"         // FE-X + membership + queue monitoring
	VFME      Version = "FME"        // MQ + fault model enforcement
	VSFME     Version = "S-FME"      // FME + global cooperation-set masking
	VCMON     Version = "C-MON"      // S-FME + 2s TCP connection monitoring
)

// ProtocolSuite selects which family of intra-cluster protocols a built
// world runs. The zero value is the paper-faithful suite, so existing
// Options literals, memo keys and golden dumps are untouched.
type ProtocolSuite int

const (
	// Faithful runs the paper's protocols exactly as studied at 4 nodes:
	// broadcast cache-directory announcements, ring heartbeats with an
	// exclusion broadcast, and the three-round Cristian/Schmuck
	// membership reorganization. O(N) or worse per event — fine at the
	// studied scale, byte-identical to every golden dump.
	Faithful ProtocolSuite = iota
	// Scalable swaps the all-to-all protocols for bounded-fanout ones so
	// the same stack honestly simulates large clusters: gossip membership
	// (epidemic digest dissemination instead of ring + 2PC), a
	// hash-partitioned cache directory (per-shard announce and relay
	// instead of cluster-wide broadcast), and document-hash request
	// routing at the front end.
	Scalable
)

func (p ProtocolSuite) String() string {
	switch p {
	case Faithful:
		return "faithful"
	case Scalable:
		return "scalable"
	default:
		return fmt.Sprintf("ProtocolSuite(%d)", int(p))
	}
}

// ParseProtocolSuite maps the CLI spelling onto the suite constant.
func ParseProtocolSuite(s string) (ProtocolSuite, error) {
	switch s {
	case "", "faithful":
		return Faithful, nil
	case "scalable":
		return Scalable, nil
	default:
		return Faithful, fmt.Errorf("unknown protocol suite %q (want faithful or scalable)", s)
	}
}

// traits captures what a version is made of.
type traits struct {
	cooperative bool
	ring        bool
	fe          bool
	extraNode   bool
	memb        bool
	qmon        bool
	fme         bool
	sfme        bool
	cmon        bool
}

func versionTraits(v Version) traits {
	switch v {
	case VINDEP:
		return traits{}
	case VFEXINDEP:
		return traits{fe: true, extraNode: true}
	case VCOOP:
		return traits{cooperative: true, ring: true}
	case VFEX:
		return traits{cooperative: true, ring: true, fe: true, extraNode: true}
	case VMEM:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true}
	case VQMON:
		return traits{cooperative: true, fe: true, extraNode: true, qmon: true}
	case VMQ:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true}
	case VFME:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true, fme: true}
	case VSFME:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true, fme: true, sfme: true}
	case VCMON:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true, fme: true, sfme: true, cmon: true}
	default:
		panic("harness: unknown version " + string(v))
	}
}

// HasFrontend reports whether the version includes the front-end tier.
func (v Version) HasFrontend() bool { return versionTraits(v).fe }

// Cooperative reports whether the version runs cooperative PRESS.
func (v Version) Cooperative() bool { return versionTraits(v).cooperative }

// HasFME reports whether the version runs the fault model enforcement
// daemon (the chaos FME-bound invariant only applies to these).
func (v Version) HasFME() bool { return versionTraits(v).fme }

// AllMeasuredVersions lists the configurations the harness builds and
// fault-injects. Figure 8's X-SW and X-SW+RAID are not among them: they
// are modeled from C-MON's fault loads (avail.WithBackupSwitch, WithRAID).
func AllMeasuredVersions() []Version {
	return []Version{VINDEP, VFEXINDEP, VCOOP, VFEX, VMEM, VQMON, VMQ, VFME, VSFME, VCMON}
}

// Options parameterizes an experiment world. Zero values take the
// paper-faithful defaults (scaled to simulation time).
type Options struct {
	Seed       int64
	Nodes      int   // base server count (4)
	CacheBytes int64 // per-node file cache (128 MB)

	// Rate is the offered load; 0 means "90% of this version's measured
	// 4-node saturation" per §5, resolved via Saturation().
	Rate float64

	// Warmup is the load ramp span (§5: warm up to peak over 5 minutes).
	Warmup time.Duration

	// Heartbeat / probe cadences (§5).
	HeartbeatPeriod time.Duration

	// Docs overrides the synthetic trace's document count (0 = default).
	// Its popularity skew is always trace.DefaultAlpha, and the offered
	// load is stationary, as in the paper's measurements (§5).
	Docs int

	// Protocol selects the intra-cluster protocol suite. The zero value
	// (Faithful) is the paper's 4-node protocols, byte-identical to the
	// golden dumps; Scalable swaps in the bounded-fanout variants for
	// large-N worlds.
	Protocol ProtocolSuite
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 128 << 20
	}
	if o.Warmup == 0 {
		o.Warmup = 5 * time.Minute
	}
	if o.HeartbeatPeriod == 0 {
		o.HeartbeatPeriod = 5 * time.Second
	}
	if o.Docs == 0 {
		o.Docs = trace.DefaultDocs
	}
	return o
}

// snap moves every option through a snapshot's envelope, so a restored
// world is built from exactly what the captured one was. A field added to
// Options is added here, to withDefaults and to buildForRestore's check
// (TestEnvelopeCarriesEveryOption holds this walk to the struct).
func (o *Options) snap(x *snapio.Ctx) {
	snapio.Int(x, &o.Seed)
	snapio.Int(x, &o.Nodes)
	snapio.Int(x, &o.CacheBytes)
	x.F64(&o.Rate)
	snapio.Int(x, &o.Warmup)
	snapio.Int(x, &o.HeartbeatPeriod)
	// Format 7's retired operator-response slot: always the 30 min every
	// built world carried. Stage E is the phase-2 model's (avail.Env).
	op := retiredOperatorResponse
	if snapio.Int(x, &op); op != retiredOperatorResponse {
		snapio.Failf("harness: an operator response of %v; stage E is the model's, and format 7 holds %v", op, retiredOperatorResponse)
	}
	// Format 7's retired front-end-pair flag: always false, since no
	// build makes that world (format 8 drops the slot).
	pair := false
	if x.Bool(&pair); pair {
		snapio.Failf("harness: a redundant front-end pair is modeled, never built")
	}
	snapio.Int(x, &o.Docs)
	// Format 7's retired trace-skew slot: always the one skew a world is
	// built with.
	alpha := trace.DefaultAlpha
	if x.F64(&alpha); alpha != trace.DefaultAlpha {
		snapio.Failf("harness: a trace skew of %v; worlds are built with %v", alpha, trace.DefaultAlpha)
	}
	snapio.Int(x, &o.Protocol)
	// Format 7's eight retired load-modulation slots (a diurnal curve's
	// amplitude, period and phase, a flash crowd's boost, onset, ramp, hold
	// and decay): always zero, since the offered load is stationary.
	// Format 8 drops them with the operator slot, the pair flag and the
	// skew slot.
	var amp, phase, boost float64
	var period, onset, ramp, hold, decay int64
	x.F64(&amp)
	snapio.Int(x, &period)
	x.F64(&phase)
	x.F64(&boost)
	for _, d := range []*int64{&onset, &ramp, &hold, &decay} {
		snapio.Int(x, d)
	}
	if math.Float64bits(amp)|math.Float64bits(phase)|math.Float64bits(boost) != 0 || period|onset|ramp|hold|decay != 0 {
		snapio.Failf("harness: a modulated offered load; worlds are built with a stationary one")
	}
}

// retiredOperatorResponse is what format 7's operator-response slot holds.
const retiredOperatorResponse = 30 * time.Minute

func (o Options) catalog() *trace.Catalog {
	return trace.NewCatalog(o.Docs, trace.DefaultSize, trace.DefaultAlpha)
}

// ServerCount returns how many server nodes the version builds with the
// given options (the extra-capacity node included when present).
func ServerCount(v Version, o Options) int {
	return serverCount(v, o.withDefaults())
}

// serverCount includes the extra-capacity node when present.
func serverCount(v Version, o Options) int {
	n := o.Nodes
	if versionTraits(v).extraNode {
		n++
	}
	return n
}

// Topology is the single accessor for a built world's node layout: how
// many server nodes exist, their IDs, which protocol suite they speak,
// and whether a front-end tier fronts them.
// Every place that used to assume the paper's fixed 4-node shape (chaos
// component ranges, correlated-fault rack draws, scaling arithmetic)
// derives from this instead of hard-coding literals.
type Topology struct {
	Version  Version
	Nodes    int // server nodes, extra-capacity node included
	Protocol ProtocolSuite
	Frontend bool
}

// DefaultRackSize is how many consecutive nodes share one rack (switch
// and power domain): what one correlated chaos event takes.
const DefaultRackSize = 2

// NewTopology resolves the topology for (version, options).
func NewTopology(v Version, o Options) Topology {
	o = o.withDefaults()
	return Topology{
		Version:  v,
		Nodes:    serverCount(v, o),
		Protocol: o.Protocol,
		Frontend: versionTraits(v).fe,
	}
}

// ServerIDs returns the server node IDs, 0..Nodes-1.
func (t Topology) ServerIDs() []cnet.NodeID {
	ids := make([]cnet.NodeID, t.Nodes)
	for i := range ids {
		ids[i] = cnet.NodeID(i)
	}
	return ids
}

// Scalable front-end tier sizing: the paper's front-end is provisioned
// for the 4-node cluster (its 500µs relay cost caps one machine at
// 2000 req/s), so a wide cluster gets one front-end per feShardNodes
// servers, numbered from feScaleBase clear of the server ID range, and
// clients stripe over the tier round-robin (DNS-style).
const (
	feShardNodes             = 32
	feScaleBase  cnet.NodeID = 10000
)

// FrontendIDs returns the node IDs of the front-end tier: none without
// one, the paper's single front-end (ID 90) for the faithful shape, and
// ceil(n/feShardNodes) scalable front-ends once one machine's relay
// capacity no longer covers the cluster's offered load.
func (t Topology) FrontendIDs() []cnet.NodeID {
	if !t.Frontend {
		return nil
	}
	k := 1
	if t.Protocol == Scalable {
		k = (t.Nodes + feShardNodes - 1) / feShardNodes
	}
	if k <= 1 {
		return []cnet.NodeID{feNodeID}
	}
	ids := make([]cnet.NodeID, k)
	for i := range ids {
		ids[i] = feScaleBase + cnet.NodeID(i)
	}
	return ids
}

// Node IDs: servers 0..n-1; front-end 90; client driver 1000.
const (
	feNodeID     cnet.NodeID = 90
	clientNodeID cnet.NodeID = 1000
)

// Cluster is one built experiment world.
type Cluster struct {
	Version Version
	Opts    Options
	Traits  traits

	Sim      *sim.Sim
	Net      *simnet.Network
	Log      *metrics.Log
	Catalog  *trace.Catalog
	Machines []*machine.Machine // server nodes
	// FEMachines is the front-end tier: one machine for the faithful
	// shape, ceil(N/32) for wide scalable clusters; a front-end failure
	// takes down FEMachines[0]. Nil without a front-end.
	FEMachines []*machine.Machine
	Injector   *faults.Injector

	Rec *workload.Recorder
	Gen *workload.Generator

	servers []**server.Server
	fes     []**frontend.Frontend // one per FEMachines entry

	// parts are the processes' components in build order, each as the
	// world walk moves it (see buildWorld's addProc).
	parts []func(*snapio.Ctx)

	genTargets []cnet.NodeID
	offered    float64
	capture    *Snap // the capture this world was restored from; nil when built cold
}

// Offered returns the offered load the cluster was built with.
func (c *Cluster) Offered() float64 { return c.offered }

// Server returns node i's current server incarnation (nil while crashed).
func (c *Cluster) Server(i int) *server.Server { return *c.servers[i] }

// fmeControl adapts a machine to fme.Control.
type fmeControl struct {
	s *sim.Sim
	m *machine.Machine
}

func (c fmeControl) TakeOffline(reason string) { c.m.TakeOffline(reason) }

func (c fmeControl) RestartApp() {
	c.m.KillProc("press")
	c.s.AfterArg(10*time.Second, startPress, c.m)
}

// startPress ends an FME restart: the application comes back up. A named
// function of the machine, so that a snapshot can carry a pending one.
func startPress(m any) { m.(*machine.Machine).StartProc("press") }

// Build assembles a cluster for the given version. rate <= 0 uses
// Options.Rate (which itself may be auto-resolved by higher layers);
// the auto-resolving saturation probe is memoized on this engine. A
// version and options no world is built from (CheckWorld) panic with
// CheckWorld's error before anything is built.
func (e *Engine) Build(v Version, o Options) *Cluster {
	if err := CheckWorld(v, o); err != nil {
		panic(err)
	}
	o = o.withDefaults()
	c := buildWorld(v, o, false)
	rate := o.Rate
	if rate <= 0 {
		rate = 0.9 * e.Saturation(v, o)
	}
	c.attachWorkload(rate)
	return c
}

// buildWorld constructs the topology: simulator, network, machines,
// processes, injector — everything except the load generator. cold
// registers processes without booting them (the snapshot restore path:
// the rehydrated state arrives afterwards, and a virgin kernel must see
// no stray boot events).
func buildWorld(v Version, o Options, cold bool) *Cluster {
	t := versionTraits(v)
	c := &Cluster{Version: v, Opts: o, Traits: t}
	// addProc registers a process and, as the world walk's next part, its
	// component. part moves the component: saving, from the live one;
	// loading, by rebuilding it on env first — nil when the process is dead
	// in the snapshot, which most components answer with no bytes at all,
	// since the next boot builds them from nothing. A nil part stands for a
	// component that is nothing but its registrations, which start makes
	// again.
	addProc := func(m *machine.Machine, name string, start func(*machine.Env), part func(x *snapio.Ctx, env *machine.Env)) {
		if cold {
			m.AddProcCold(name, start)
		} else {
			m.AddProc(name, start)
		}
		c.parts = append(c.parts, func(x *snapio.Ctx) {
			var env *machine.Env
			if m.Proc(name).Alive() {
				env = m.RestoreEnv(name)
			}
			switch {
			case part != nil:
				part(x, env)
			case env != nil && !x.Saving():
				start(env)
			}
		})
	}
	s := sim.New(o.Seed)
	log := &metrics.Log{}
	scalable := o.Protocol == Scalable
	net := simnet.New(s, simnet.DefaultConfig(), log)
	cat := o.catalog()

	topo := NewTopology(v, o)
	n := topo.Nodes
	ids := topo.ServerIDs()

	c.Sim, c.Net, c.Log, c.Catalog = s, net, log, cat

	diskCfg := simdisk.DefaultConfig()
	for i := 0; i < n; i++ {
		disks := simdisk.NewArray(s, s.NewRand(fmt.Sprintf("disks/%d", i)), diskCfg, 2)
		m := machine.New(s, net, ids[i], disks, log)
		c.Machines = append(c.Machines, m)

		var pub *membership.Published
		if t.memb {
			// The segment is shared memory: it survives both its writer and
			// its reader, so it is a part of its own, ahead of theirs.
			pub = &membership.Published{}
			c.parts = append(c.parts, pub.SnapState)
			mcfg := membership.Config{
				Self:     ids[i],
				HBPeriod: o.HeartbeatPeriod,
				HBMiss:   3,
				Gossip:   scalable,
				Peers:    ids,
			}
			var membd *membership.Daemon
			addProc(m, "membd", func(env *machine.Env) {
				membd = membership.NewDaemon(mcfg, env, pub)
			}, livePart(&membd, func(env *machine.Env, x *snapio.Ctx) *membership.Daemon {
				return membership.Restore(mcfg, env, pub, x)
			}))
		}
		if t.fe {
			addProc(m, "icmp", func(env *machine.Env) { frontend.NewPingResponder(env) }, nil)
		}

		holder := new(*server.Server)
		c.servers = append(c.servers, holder)
		cfg := server.Config{
			Self:            ids[i],
			Nodes:           ids,
			Cooperative:     t.cooperative,
			RingDetector:    t.ring,
			Sharded:         scalable && t.cooperative,
			HeartbeatPeriod: o.HeartbeatPeriod,
			CacheBytes:      o.CacheBytes,
			Catalog:         cat,
			QMon:            t.qmon,
		}
		// The press process links the membership client library; its poll
		// loop travels right ahead of the server it calls back.
		var client *membership.Client
		view := func() server.MembershipView {
			if client == nil {
				return nil
			}
			return client
		}
		addProc(m, "press", func(env *machine.Env) {
			if pub != nil {
				client = membership.NewClient(env, pub, time.Second)
			}
			*holder = server.New(cfg, env, disks, view())
		}, func(x *snapio.Ctx, env *machine.Env) {
			// A node whose press process died keeps a stale *Server holder
			// that OperatorReset and the chaos result assembly still read;
			// it is saved as a husk (observable accessors only).
			tag := srvHusk
			if *holder == nil {
				tag = srvNone
			} else if env != nil {
				tag = srvLive
			}
			snapio.Int(x, &tag)
			switch tag {
			case srvNone:
			case srvLive:
				if x.Saving() {
					if pub != nil {
						client.SnapState(x)
					}
					(*holder).SnapState(x)
				} else {
					if pub != nil {
						client = membership.RestoreClient(env, pub, time.Second, x)
					}
					*holder = server.Restore(cfg, env, disks, view(), x)
				}
			case srvHusk:
				if x.Saving() {
					(*holder).SnapHusk(x)
				} else {
					*holder = server.RestoreHusk(cfg, x)
				}
			default:
				snapio.Failf("harness: bad server section tag %d for node %d", tag, i)
			}
		})

		if t.fme {
			fcfg := fme.Config{Self: ids[i], ProbePeriod: o.HeartbeatPeriod}
			ctl := fmeControl{s: s, m: m}
			var fmed *fme.Daemon
			addProc(m, "fme", func(env *machine.Env) {
				fmed = fme.NewDaemon(fcfg, env, disks, ctl)
			}, livePart(&fmed, func(env *machine.Env, x *snapio.Ctx) *fme.Daemon {
				return fme.Restore(fcfg, env, disks, ctl, x)
			}))
		}
	}

	targets := ids
	if t.fe {
		// One front-end for the faithful shape; a tier of them for wide
		// scalable clusters, with the client generator striping over the
		// tier round-robin (see FrontendIDs).
		feIDs := topo.FrontendIDs()
		for _, fid := range feIDs {
			feCfg := frontend.Config{
				Self:       fid,
				Backends:   ids,
				PingPeriod: o.HeartbeatPeriod,
				PingMiss:   3,
				SFME:       t.sfme,
				ShardRoute: scalable,
			}
			if t.cmon {
				feCfg.ConnMonitor = true
				feCfg.ConnPeriod = time.Second
				feCfg.ConnDeadline = 2 * time.Second
			}
			m := machine.New(s, net, fid, nil, log)
			holder := new(*frontend.Frontend)
			addProc(m, "frontend", func(env *machine.Env) {
				*holder = frontend.New(feCfg, env)
			}, livePart(holder, func(env *machine.Env, x *snapio.Ctx) *frontend.Frontend {
				return frontend.Restore(feCfg, env, x)
			}))
			c.FEMachines = append(c.FEMachines, m)
			c.fes = append(c.fes, holder)
		}
		targets = feIDs
	}

	ft := faults.Targets{Net: net, Machines: c.Machines, AppProc: "press"}
	if t.fe {
		ft.Frontend = c.FEMachines[0]
	}
	c.Injector = faults.NewInjector(s, log, ft)

	c.genTargets = targets
	return c
}

// livePart is the part (see buildWorld's addProc) of a component that
// travels only while its process is alive: saved from *holder, restored
// into it. A process dead in the snapshot leaves the holder as the cold
// build made it, empty — nothing reads a daemon between its death and the
// boot that replaces it, nor a front-end whose machine is down
// (Reintegrated asks the machine first).
func livePart[T interface{ SnapState(*snapio.Ctx) }](holder *T, restore func(*machine.Env, *snapio.Ctx) T) func(*snapio.Ctx, *machine.Env) {
	return func(x *snapio.Ctx, env *machine.Env) {
		switch {
		case env == nil:
		case x.Saving():
			(*holder).SnapState(x)
		default:
			*holder = restore(env, x)
		}
	}
}

// attachWorkload finishes a built world with its load generator at the
// resolved offered rate.
func (c *Cluster) attachWorkload(rate float64) {
	c.offered = rate
	c.Rec = workload.NewRecorder()
	c.Gen = workload.NewGenerator(c.Sim, c.Net, clientNodeID, workload.Config{
		Rate:    rate,
		Targets: c.genTargets,
		Catalog: c.Catalog,
		RampUp:  c.Opts.Warmup,
	}, c.Rec)
}

// buildForRestore constructs a cold world ready for Snap.Restore: same
// topology as Build, but no process boots the virgin kernel, and the
// offered rate must already be resolved (it is recorded in the snapshot
// envelope — the saturation probe must not rerun). The arguments may come
// from a file: a world nobody could have built is refused here, before
// anything is sized by them.
func buildForRestore(v Version, o Options, rate float64) *Cluster {
	if err := CheckWorld(v, o); err != nil {
		snapio.Failf("%v", err)
	}
	if !finite(rate) || rate <= 0 {
		snapio.Failf("harness: a restored world needs a resolved rate, got %v", rate)
	}
	c := buildWorld(v, o.withDefaults(), true)
	c.attachWorkload(rate)
	return c
}

// CheckWorld refuses a version and options no world is built from. What
// arrives in a file — a snapshot's envelope, a hand-edited chaos repro —
// passes here before anything is sized by it.
func CheckWorld(v Version, o Options) error {
	if !slices.Contains(AllMeasuredVersions(), v) {
		return fmt.Errorf("harness: unknown version %q", v)
	}
	o = o.withDefaults()
	switch {
	case o.Nodes < 1 || o.Nodes > 1<<25 || o.Docs < 1 || o.Docs > 1<<25 || o.Nodes*o.Docs > 1<<25, // every server indexes every document
		o.CacheBytes < 0,
		o.Warmup < 0, o.HeartbeatPeriod < 0,
		o.Protocol != Faithful && o.Protocol != Scalable,
		!finite(o.Rate):
		return fmt.Errorf("harness: options no world is built with: %+v", o)
	}
	// Server ids run from 0 and must stay clear of the front-end's (when
	// it is the paper's single one) and the client driver's.
	if topo := NewTopology(v, o); topo.Nodes > int(clientNodeID) || len(topo.FrontendIDs()) == 1 && topo.Nodes > int(feNodeID) {
		return fmt.Errorf("harness: %d server nodes collide with the fixed node ids of %s", topo.Nodes, v)
	}
	return nil
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// Reintegrated reports whether the service is fully healthy and whole:
// every machine up and its server whole, and the front end up with every
// server in its healthy set.
func (c *Cluster) Reintegrated() bool {
	for i, m := range c.Machines {
		if !m.Up() || !c.serverWhole(i) {
			return false
		}
	}
	if c.Traits.fe {
		if !c.FEMachines[0].Up() {
			return false
		}
		if fe := *c.fes[0]; fe == nil || len(fe.Healthy()) != len(c.Machines) {
			return false
		}
	}
	return true
}

// serverWhole reports whether node i's server is whole: its process alive
// and unwedged and, for a cooperative version, holding a complete
// cooperation view (a view never exceeds the static node set). A transient
// disk-queue stall (cold cache after a restart) is normal operation, not
// un-wholeness; persistent exclusions show up in the view.
func (c *Cluster) serverWhole(i int) bool {
	p := c.Machines[i].Proc("press")
	if p == nil || !p.Alive() || p.Hung() {
		return false
	}
	if !c.Traits.cooperative {
		return true
	}
	srv := c.Server(i)
	return srv != nil && len(srv.View()) == len(c.Machines)
}

// OperatorReset performs the operator's recovery action at the end of a
// failed self-recovery (§3: "restart the singleton sub-cluster"): every
// splintered, wedged, or dead server process is restarted.
func (c *Cluster) OperatorReset() {
	c.Log.EmitID(c.Sim.Now(), metrics.SrcOperator, metrics.KOperatorReset, -1, "restarting unhealthy servers")
	for _, m := range c.Machines {
		// A node parked offline (e.g. by FME) whose hardware has since
		// been repaired is the operator's to boot. Machines with faulty
		// disks stay with the repair crew.
		if !m.Up() && m.State() == simnet.NodeDown && m.Disks() != nil && !m.Disks().AnyFaulty() {
			m.Restart()
		}
	}
	for i, m := range c.Machines {
		// A machine still down is the repair crew's problem.
		if m.Up() && !c.serverWhole(i) {
			m.KillProc("press")
			m.StartProc("press")
		}
	}
}
