// Package faults is the reproduction's Mendosus (§5): a fault-injection
// testbed that can impose every fault class of the paper's Table 1 on the
// simulated cluster and repair it again, while leaving client-server
// traffic untouched by intra-cluster network faults.
//
// The package has two halves: the fault catalog (Table 1's fault types
// with their MTTFs, MTTRs and component counts, which parameterize the
// phase-2 availability model) and the Injector, which applies fault
// instances to the running simulation. The injector supports the chaos
// regime the paper's methodology brackets out: multiple simultaneously
// active faults on distinct (type, component) slots, intermittent
// (flapping) variants such as link flap and disk stutter, and partial
// repair — each active fault repairs independently, so a node can get
// its link back while its disk is still stuttering. Double-injecting an
// already-active slot or repairing an inactive fault is a typed error
// (*Error wrapping ErrActive / ErrNotActive), never silent overwrite.
package faults

import (
	"errors"
	"fmt"
	"time"

	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simnet"
)

// Type enumerates the paper's fault classes.
type Type int

const (
	// LinkDown severs one node's intra-cluster link.
	LinkDown Type = iota
	// SwitchDown takes the intra-cluster switch out.
	SwitchDown
	// SCSITimeout hangs one disk.
	SCSITimeout
	// NodeCrash powers a server machine off until repair.
	NodeCrash
	// NodeFreeze wedges a server machine without crashing it.
	NodeFreeze
	// AppCrash kills the server process (it restarts at repair).
	AppCrash
	// AppHang wedges the server process without killing it.
	AppHang
	// FrontendFailure crashes the front-end machine.
	FrontendFailure

	// The gray classes extend Table 1 with the partial-degradation
	// failures the paper's testbed could not inject (§7 concedes them as
	// the dominant real-world class). A gray component is degraded, not
	// down: every binary health check still passes.

	// NodeSlow multiplies a machine's CPU service times (severity =
	// multiplier, default 4x).
	NodeSlow
	// LinkLossy drops intra-cluster datagrams probabilistically on one
	// node's link and inflates its latency (severity = drop probability,
	// default 0.3).
	LinkLossy
	// DiskDegraded multiplies one disk's service time (severity =
	// multiplier, default 10x) while probes keep passing.
	DiskDegraded

	numTypes
)

// typeMeta is the single metadata record for one fault class. Every
// per-class list in the package (names, Table 1 rows, flap capability,
// severity semantics) derives from this table so a new class cannot
// silently miss rate or target wiring.
type typeMeta struct {
	name string
	mttf time.Duration // expected per-component MTTF (Table 1, or estimate for gray classes)
	mttr time.Duration
	// comps gives the component count for a cluster of n server nodes.
	comps func(n, disksPerNode int, withFrontend bool) int
	// flapCapable marks classes whose physical analogue is intermittent
	// (link flap, disk stutter, lossy-link episodes).
	flapCapable bool
	// gray marks partial-degradation classes carrying a severity knob.
	gray bool
	// defSeverity is the class's default severity (gray classes only).
	defSeverity float64
}

func perNode(n, _ int, _ bool) int   { return n }
func perDisk(n, d int, _ bool) int   { return n * d }
func oneSwitch(_, _ int, _ bool) int { return 1 }
func feOnly(_, _ int, withFE bool) int {
	if withFE {
		return 1
	}
	return 0
}

// typeMetas indexes typeMeta by Type. The first eight rows are the
// paper's Table 1; the gray rows use MTTF/MTTR estimates consistent with
// its "application failures dominate" observation (gray faults were not
// measured in the paper).
var typeMetas = [numTypes]typeMeta{
	LinkDown:        {name: "link-down", mttf: 6 * month, mttr: 3 * time.Minute, comps: perNode, flapCapable: true},
	SwitchDown:      {name: "switch-down", mttf: year, mttr: time.Hour, comps: oneSwitch},
	SCSITimeout:     {name: "scsi-timeout", mttf: year, mttr: time.Hour, comps: perDisk, flapCapable: true},
	NodeCrash:       {name: "node-crash", mttf: 2 * week, mttr: 3 * time.Minute, comps: perNode},
	NodeFreeze:      {name: "node-freeze", mttf: 2 * week, mttr: 3 * time.Minute, comps: perNode},
	AppCrash:        {name: "app-crash", mttf: 2 * month, mttr: 3 * time.Minute, comps: perNode},
	AppHang:         {name: "app-hang", mttf: 2 * month, mttr: 3 * time.Minute, comps: perNode},
	FrontendFailure: {name: "frontend-failure", mttf: 6 * month, mttr: 3 * time.Minute, comps: feOnly},
	NodeSlow:        {name: "node-slow", mttf: month, mttr: 10 * time.Minute, comps: perNode, gray: true, defSeverity: 4},
	LinkLossy:       {name: "link-lossy", mttf: month, mttr: 10 * time.Minute, comps: perNode, flapCapable: true, gray: true, defSeverity: 0.3},
	DiskDegraded:    {name: "disk-degraded", mttf: 2 * month, mttr: time.Hour, comps: perDisk, gray: true, defSeverity: 10},
}

func (t Type) String() string {
	if t < 0 || t >= numTypes {
		return fmt.Sprintf("fault(%d)", int(t))
	}
	return typeMetas[t].name
}

// ParseType inverts String for the chaos repro file format.
func ParseType(s string) (Type, error) {
	for i := range typeMetas {
		if typeMetas[i].name == s {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault type %q", s)
}

// AllTypes lists every fault class, Table 1 order first, then the gray
// classes.
func AllTypes() []Type {
	out := make([]Type, numTypes)
	for i := range out {
		out[i] = Type(i)
	}
	return out
}

// Gray reports whether t is a partial-degradation class (carries a
// severity knob; the component stays nominally healthy).
func Gray(t Type) bool { return t >= 0 && t < numTypes && typeMetas[t].gray }

// FlapCapable reports whether t's physical analogue is intermittent
// (link flap, disk stutter, lossy-link episodes). The chaos generator
// only draws flapping variants for these classes.
func FlapCapable(t Type) bool { return t >= 0 && t < numTypes && typeMetas[t].flapCapable }

// DefaultSeverity returns the class's default severity knob (0 for
// binary classes). NodeSlow/DiskDegraded severities are service-time
// multipliers (>1); LinkLossy severity is a drop probability in (0, 1).
func DefaultSeverity(t Type) float64 {
	if t < 0 || t >= numTypes {
		return 0
	}
	return typeMetas[t].defSeverity
}

// ValidateSeverity checks a severity knob against the class's semantics.
// Zero always means "use the class default".
func ValidateSeverity(t Type, sev float64) error {
	if sev == 0 {
		return nil
	}
	switch {
	case !Gray(t):
		return fmt.Errorf("severity %g on non-gray class %v", sev, t)
	case t == LinkLossy && (sev <= 0 || sev >= 1):
		return fmt.Errorf("link-lossy severity is a drop probability, need 0 < %g < 1", sev)
	case t != LinkLossy && sev <= 1:
		return fmt.Errorf("%v severity is a service-time multiplier, need %g > 1", t, sev)
	}
	return nil
}

// Spec is one row of the fault catalog: a fault class with its expected
// fault load. The first eight classes are the paper's Table 1.
type Spec struct {
	Type       Type
	MTTF       time.Duration // mean time to failure, per component
	MTTR       time.Duration // mean time to repair
	Components int           // number of components of this class
	Severity   float64       // gray classes: intensity knob (0 = class default)
}

// Rate returns the class's aggregate fault rate (faults per unit time).
func (s Spec) Rate() float64 {
	if s.MTTF <= 0 {
		return 0
	}
	return float64(s.Components) / s.MTTF.Seconds()
}

const (
	day   = 24 * time.Hour
	week  = 7 * day
	month = 30 * day
	year  = 365 * day
)

// specFor materializes one catalog row from the metadata table, or a
// zero-component Spec when the class does not apply to this cluster.
func specFor(t Type, n, disksPerNode int, withFrontend bool) Spec {
	m := &typeMetas[t]
	return Spec{
		Type:       t,
		MTTF:       m.mttf,
		MTTR:       m.mttr,
		Components: m.comps(n, disksPerNode, withFrontend),
		Severity:   m.defSeverity,
	}
}

// Table1 returns the paper's expected fault load for a cluster of n server
// nodes (Table 1 lists the 4-node instantiation). disksPerNode is 2 on the
// paper's hardware. withFrontend adds the front-end component. Rows are
// built by iterating the class metadata, so a class added to the enum
// cannot silently miss its rate wiring.
//
// "Application hang and crash together represent an MTTF of 1 month for
// application failures": each is listed at 2 months.
func Table1(n, disksPerNode int, withFrontend bool) []Spec {
	specs := make([]Spec, 0, numTypes)
	for _, t := range AllTypes() {
		if Gray(t) {
			continue
		}
		s := specFor(t, n, disksPerNode, withFrontend)
		if s.Components == 0 {
			continue
		}
		specs = append(specs, s)
	}
	return specs
}

// GrayTable returns the expected fault load of the gray classes alone,
// for campaigns that layer partial degradation on top of Table 1.
func GrayTable(n, disksPerNode int) []Spec {
	specs := make([]Spec, 0, 3)
	for _, t := range AllTypes() {
		if !Gray(t) {
			continue
		}
		specs = append(specs, specFor(t, n, disksPerNode, false))
	}
	return specs
}

// Targets names the injectable pieces of a simulated cluster.
type Targets struct {
	Net      *simnet.Network
	Machines []*machine.Machine // server nodes, index = component for node faults
	Frontend *machine.Machine   // nil when the version has no front-end
	AppProc  string             // server process name on each machine
}

// Sentinel causes for *Error, checkable with errors.Is.
var (
	// ErrActive: the (type, component) slot already carries an active
	// fault; the caller tried to double-inject.
	ErrActive = errors.New("fault already active")
	// ErrNotActive: the fault was already repaired (or never injected).
	ErrNotActive = errors.New("fault not active")
)

// Error is the injector's typed error: which operation failed on which
// fault slot, and why (Unwrap yields ErrActive or ErrNotActive).
type Error struct {
	Op        string // "inject" or "repair"
	Type      Type
	Component int
	Err       error
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: %s %v/%d: %v", e.Op, e.Type, e.Component, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Flap describes an intermittent fault: the effect toggles between
// active (On span) and repaired (Off span) until Repair ends it for
// good. Link flap is Flap over LinkDown; disk stutter is Flap over
// SCSITimeout; any class can flap.
type Flap struct {
	On  time.Duration
	Off time.Duration
}

// Flapping reports whether the spec describes a real toggle.
func (f Flap) Flapping() bool { return f.On > 0 && f.Off > 0 }

// slot identifies one injectable (type, component) pair.
type slot struct {
	t Type
	c int
}

// Injector applies and repairs faults. It tracks every active fault by
// (type, component) slot: distinct slots overlap freely and repair
// independently (partial repair); the same slot can hold only one
// active fault at a time.
type Injector struct {
	sim    *sim.Sim
	log    *metrics.Log
	t      Targets // targets are construction config, identical across forks
	active map[slot]*Active
}

// NewInjector builds an injector over the given targets.
func NewInjector(s *sim.Sim, log *metrics.Log, t Targets) *Injector {
	if t.AppProc == "" {
		t.AppProc = "press"
	}
	return &Injector{sim: s, log: log, t: t, active: make(map[slot]*Active)}
}

// Active is a fault in effect; Repair undoes it.
type Active struct {
	Type      Type
	Component int
	Flap      Flap // zero for a steady fault
	// Severity is the resolved intensity of a gray fault (class default
	// substituted at injection); 0 for binary classes.
	Severity float64
	// Group tags members of one correlated fault event (switch-takes-rack,
	// power event); 0 marks an independent fault.
	Group int

	in       *Injector // owner backlink
	applied  bool      // the effect is imposed; false while in a flap's off phase
	timer    sim.Timer
	repaired bool //availlint:skipfield repaired Repair removes the fault from the active map, so a serialized Active is never repaired
}

// Flapping reports whether this fault is an intermittent variant.
func (a *Active) Flapping() bool { return a.Flap.Flapping() }

// Repair ends the fault: a steady fault's effect is reversed; a flapping
// fault stops toggling (its effect reversed if currently applied). The
// slot becomes free for re-injection. Repairing an already-repaired
// fault is a typed error (*Error wrapping ErrNotActive).
func (a *Active) Repair() error {
	if a == nil || a.repaired {
		var t Type
		var c int
		if a != nil {
			t, c = a.Type, a.Component
		}
		return &Error{Op: "repair", Type: t, Component: c, Err: ErrNotActive}
	}
	a.repaired = true
	a.timer.Stop() // stale or zero handles are safe no-ops
	delete(a.in.active, slot{a.Type, a.Component})
	if a.applied {
		a.unapply()
	} else {
		// A flap caught in its off phase: the effect is already off, but
		// the fault as a whole ends here — record that for the log's
		// inject/repair pairing.
		a.in.emit(metrics.KFaultRepair, a.Component, a.Type.String()+"/flap-idle")
	}
	return nil
}

func (in *Injector) emit(kind metrics.KindID, component int, detail string) {
	if in.log != nil {
		in.log.EmitID(in.sim.Now(), metrics.SrcInjector, kind, component, detail)
	}
}

// register claims the slot or returns the double-injection error.
func (in *Injector) register(t Type, c int, o InjectOpts) (*Active, error) {
	k := slot{t, c}
	if _, dup := in.active[k]; dup {
		return nil, &Error{Op: "inject", Type: t, Component: c, Err: ErrActive}
	}
	sev := o.Severity
	if Gray(t) && sev == 0 {
		sev = DefaultSeverity(t)
	}
	a := &Active{Type: t, Component: c, Flap: o.Flap, Severity: sev, Group: o.Group, in: in}
	in.active[k] = a
	return a, nil
}

// InjectOpts refine one injection beyond its (type, component) slot.
// The zero value is a steady, independent, default-severity fault.
type InjectOpts struct {
	// Flap makes the fault intermittent (both spans must be positive).
	Flap Flap
	// Severity sets a gray class's intensity (0 = class default); it is
	// an error on binary classes.
	Severity float64
	// Group tags this fault as a member of a correlated event; purely
	// observational (kept on the Active record, round-tripped by snapshots).
	Group int
}

// InjectWith applies one fault of class t to component index c with the
// given refinements. Component meaning depends on the class: node index
// for node/app/link faults (gray included), disk index for SCSI and
// disk-degraded — node i's disks are 2i and 2i+1 — and ignored for
// switch and front-end faults. Injecting a slot that already carries an
// active fault returns a typed error (*Error wrapping ErrActive); faults
// on distinct slots stack and repair independently. It panics on
// out-of-range components: experiments are misconfigured, not
// recoverable.
func (in *Injector) InjectWith(t Type, c int, o InjectOpts) (*Active, error) {
	if (o.Flap.On != 0 || o.Flap.Off != 0) && !o.Flap.Flapping() {
		return nil, &Error{Op: "inject", Type: t, Component: c,
			Err: fmt.Errorf("flap spans must be positive, got on=%v off=%v", o.Flap.On, o.Flap.Off)}
	}
	if err := ValidateSeverity(t, o.Severity); err != nil {
		return nil, &Error{Op: "inject", Type: t, Component: c, Err: err}
	}
	a, err := in.register(t, c, o)
	if err != nil {
		return nil, err
	}
	a.apply()
	if a.Flapping() {
		a.timer = in.sim.AfterArg(a.Flap.On, toggle, a)
	}
	return a, nil
}

// Inject applies one steady, default-severity fault. See InjectWith.
func (in *Injector) Inject(t Type, c int) (*Active, error) {
	return in.InjectWith(t, c, InjectOpts{})
}

// InjectFlap applies an intermittent fault: the effect holds for f.On,
// lifts for f.Off, and repeats until Repair. Slot conflict rules match
// Inject. Both flap spans must be positive.
func (in *Injector) InjectFlap(t Type, c int, f Flap) (*Active, error) {
	if !f.Flapping() {
		return nil, &Error{Op: "inject", Type: t, Component: c,
			Err: fmt.Errorf("flap spans must be positive, got on=%v off=%v", f.On, f.Off)}
	}
	return in.InjectWith(t, c, InjectOpts{Flap: f})
}

// toggle is the flap driver, the kernel callback of a flapping *Active:
// lift the effect after each on span, reapply it after each off span.
func toggle(arg any) {
	a := arg.(*Active)
	if a.repaired {
		return
	}
	if a.applied {
		a.unapply()
		a.timer = a.in.sim.AfterArg(a.Flap.Off, toggle, a)
	} else {
		a.apply()
		a.timer = a.in.sim.AfterArg(a.Flap.On, toggle, a)
	}
}

// apply imposes the fault's effect.
func (a *Active) apply() {
	a.set(true)
	a.applied = true
	a.in.emit(metrics.KFaultInject, a.Component, a.detail())
}

// unapply reverses the current application.
func (a *Active) unapply() {
	a.applied = false
	a.set(false)
	a.in.emit(metrics.KFaultRepair, a.Component, a.detail())
}

// set is the fault's effect, imposed (on) or lifted, on the targets as
// they are now: a flap re-applied or a fault repaired after the node
// changed state underneath it (another fault's doing) acts on current
// reality, and the machine/process guards make redundant transitions
// no-ops.
func (a *Active) set(on bool) {
	in, c := a.in, a.Component
	sev := 0.0 // lifted
	if on {
		sev = a.Severity
	}
	switch a.Type {
	case LinkDown:
		in.t.Machines[c].Iface().SetLink(!on)
	case SwitchDown:
		in.t.Net.SetSwitch(!on)
	case SCSITimeout:
		m := in.t.Machines[c/2]
		m.Disks().Disks()[c%2].SetFaulty(on)
		// Repair crews boot the node back if it was taken offline (e.g. by
		// FME's fault-model translation).
		if !on && !m.Up() && m.State() == simnet.NodeDown {
			m.Restart()
		}
	case NodeCrash:
		if m := in.t.Machines[c]; on {
			m.Crash()
		} else {
			m.Restart()
		}
	case NodeFreeze:
		if m := in.t.Machines[c]; on {
			m.Freeze()
		} else {
			m.Unfreeze()
		}
	case AppCrash:
		if m := in.t.Machines[c]; on {
			m.KillProc(in.t.AppProc)
		} else {
			m.StartProc(in.t.AppProc)
		}
	case AppHang:
		if p := in.t.Machines[c].Proc(in.t.AppProc); on {
			p.Hang()
		} else {
			p.Unhang()
		}
	case FrontendFailure:
		if in.t.Frontend == nil {
			panic("faults: no front-end to fail")
		}
		if on {
			in.t.Frontend.Crash()
		} else {
			in.t.Frontend.Restart()
		}
	case NodeSlow:
		in.t.Machines[c].SetSlow(sev)
	case LinkLossy:
		in.t.Machines[c].Iface().SetLossy(sev, LossyLatency(sev))
	case DiskDegraded:
		in.t.Machines[c/2].Disks().Disks()[c%2].SetDegraded(sev)
	default:
		panic(fmt.Sprintf("faults: unknown type %v", a.Type))
	}
}

// LossyLatency derives the per-direction latency inflation a lossy link
// suffers from its drop-probability severity: retransmission and backoff
// on a real lossy link cost latency roughly in proportion to the loss
// rate. At the default severity 0.3 each traversal of the link gains 6ms.
func LossyLatency(sev float64) time.Duration {
	return time.Duration(sev * float64(20*time.Millisecond))
}

func (a *Active) detail() string {
	if a.Flapping() {
		return a.Type.String() + "/flap"
	}
	return a.Type.String()
}

// ActiveCount returns how many faults are currently active.
func (in *Injector) ActiveCount() int { return len(in.active) }

// Applicable reports whether fault class t can be injected on these
// targets (front-end faults need a front-end).
func (in *Injector) Applicable(t Type) bool {
	return t != FrontendFailure || in.t.Frontend != nil
}
