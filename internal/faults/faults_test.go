package faults

import (
	"errors"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
)

func testTargets(t *testing.T, n int) (*sim.Sim, *metrics.Log, Targets) {
	t.Helper()
	s := sim.New(1)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	tg := Targets{Net: net, AppProc: "press"}
	for i := 0; i < n; i++ {
		disks := simdisk.NewArray(s, s.NewRand("d"), simdisk.Config{MeanService: time.Millisecond, QueueCap: 4, Workers: 2}, 2)
		m := machine.New(s, net, cnet.NodeID(i), disks, log)
		m.AddProc("press", func(env *machine.Env) {})
		tg.Machines = append(tg.Machines, m)
	}
	fe := machine.New(s, net, 100, nil, log)
	fe.AddProc("frontend", func(env *machine.Env) {})
	tg.Frontend = fe
	return s, log, tg
}

// mustInject is the test-side shorthand for faults that cannot conflict.
func mustInject(t *testing.T, in *Injector, ft Type, c int) *Active {
	t.Helper()
	a, err := in.Inject(ft, c)
	if err != nil {
		t.Fatalf("Inject(%v, %d): %v", ft, c, err)
	}
	return a
}

func mustRepair(t *testing.T, a *Active) {
	t.Helper()
	if err := a.Repair(); err != nil {
		t.Fatalf("Repair(%v/%d): %v", a.Type, a.Component, err)
	}
}

func TestTable1Shape(t *testing.T) {
	specs := Table1(4, 2, true)
	if len(specs) != 8 {
		t.Fatalf("got %d specs, want 8", len(specs))
	}
	byType := map[Type]Spec{}
	for _, sp := range specs {
		byType[sp.Type] = sp
	}
	if byType[NodeCrash].Components != 4 || byType[NodeCrash].MTTF != 14*24*time.Hour {
		t.Fatalf("node crash spec %+v", byType[NodeCrash])
	}
	if byType[SCSITimeout].Components != 8 || byType[SCSITimeout].MTTR != time.Hour {
		t.Fatalf("scsi spec %+v", byType[SCSITimeout])
	}
	if byType[SwitchDown].Components != 1 {
		t.Fatalf("switch spec %+v", byType[SwitchDown])
	}
	if byType[FrontendFailure].Components != 1 {
		t.Fatalf("fe spec %+v", byType[FrontendFailure])
	}
	// Without a front-end the row disappears.
	if got := len(Table1(4, 2, false)); got != 7 {
		t.Fatalf("without FE got %d specs", got)
	}
	// Component counts scale with n.
	specs8 := Table1(8, 2, false)
	for _, sp := range specs8 {
		switch sp.Type {
		case LinkDown, NodeCrash, NodeFreeze, AppCrash, AppHang:
			if sp.Components != 8 {
				t.Fatalf("%v components %d at n=8", sp.Type, sp.Components)
			}
		case SCSITimeout:
			if sp.Components != 16 {
				t.Fatalf("scsi components %d at n=8", sp.Components)
			}
		}
	}
}

func TestSpecRate(t *testing.T) {
	sp := Spec{Type: NodeCrash, MTTF: 2 * time.Hour, Components: 4}
	want := 4.0 / (2 * 3600)
	if got := sp.Rate(); got != want {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
	if (Spec{}).Rate() != 0 {
		t.Fatal("zero spec rate != 0")
	}
}

func TestInjectRepairRoundTrips(t *testing.T) {
	s, log, tg := testTargets(t, 2)
	in := NewInjector(s, log, tg)

	// Link
	a := mustInject(t, in, LinkDown, 1)
	if tg.Machines[1].Iface().LinkUp() {
		t.Fatal("link still up")
	}
	mustRepair(t, a)
	if !tg.Machines[1].Iface().LinkUp() {
		t.Fatal("link not repaired")
	}

	// Switch
	a = mustInject(t, in, SwitchDown, 0)
	if tg.Net.SwitchUp() {
		t.Fatal("switch still up")
	}
	mustRepair(t, a)
	if !tg.Net.SwitchUp() {
		t.Fatal("switch not repaired")
	}

	// SCSI: disk 3 is node 1's second disk.
	a = mustInject(t, in, SCSITimeout, 3)
	if !tg.Machines[1].Disks().Disks()[1].Faulty() {
		t.Fatal("disk not faulty")
	}
	mustRepair(t, a)
	if tg.Machines[1].Disks().AnyFaulty() {
		t.Fatal("disk not repaired")
	}

	// Node crash
	a = mustInject(t, in, NodeCrash, 0)
	if tg.Machines[0].Up() {
		t.Fatal("machine still up")
	}
	mustRepair(t, a)
	if !tg.Machines[0].Up() {
		t.Fatal("machine not restarted")
	}

	// Node freeze
	a = mustInject(t, in, NodeFreeze, 0)
	if tg.Machines[0].State() != simnet.NodeFrozen {
		t.Fatal("machine not frozen")
	}
	mustRepair(t, a)
	if !tg.Machines[0].Up() {
		t.Fatal("machine not thawed")
	}

	// App crash
	a = mustInject(t, in, AppCrash, 1)
	if tg.Machines[1].Proc("press").Alive() {
		t.Fatal("app still alive")
	}
	mustRepair(t, a)
	if !tg.Machines[1].Proc("press").Alive() {
		t.Fatal("app not restarted")
	}

	// App hang
	a = mustInject(t, in, AppHang, 1)
	if !tg.Machines[1].Proc("press").Hung() {
		t.Fatal("app not hung")
	}
	mustRepair(t, a)
	if tg.Machines[1].Proc("press").Hung() {
		t.Fatal("app not unhung")
	}

	// Front-end
	a = mustInject(t, in, FrontendFailure, 0)
	if tg.Frontend.Up() {
		t.Fatal("front-end still up")
	}
	mustRepair(t, a)
	if !tg.Frontend.Up() {
		t.Fatal("front-end not restarted")
	}

	if in.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d after full repair", in.ActiveCount())
	}
}

// TestDoubleInjectReturnsTypedError: satellite (a), inject path. Injecting
// an already-active (type, component) slot is a typed conflict error;
// other components and other fault classes on the same component are not
// conflicts; repairing frees the slot for re-injection.
func TestDoubleInjectReturnsTypedError(t *testing.T) {
	s, log, tg := testTargets(t, 2)
	in := NewInjector(s, log, tg)

	a := mustInject(t, in, NodeFreeze, 1)
	dup, err := in.Inject(NodeFreeze, 1)
	if dup != nil || err == nil {
		t.Fatalf("double inject: got (%v, %v), want (nil, error)", dup, err)
	}
	if !errors.Is(err, ErrActive) {
		t.Fatalf("double inject error %v does not wrap ErrActive", err)
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("double inject error %v is not a *faults.Error", err)
	}
	if fe.Op != "inject" || fe.Type != NodeFreeze || fe.Component != 1 {
		t.Fatalf("error fields %+v", fe)
	}

	// Distinct component: no conflict.
	b := mustInject(t, in, NodeFreeze, 0)
	// Distinct class on the same component: no conflict (overlap).
	c := mustInject(t, in, LinkDown, 1)
	if in.ActiveCount() != 3 {
		t.Fatalf("ActiveCount = %d, want 3", in.ActiveCount())
	}

	// Repair frees the slot.
	mustRepair(t, a)
	mustRepair(t, b)
	mustRepair(t, c)
	a = mustInject(t, in, NodeFreeze, 1)
	mustRepair(t, a)
}

// TestRepairInactiveReturnsTypedError: satellite (a), repair path.
func TestRepairInactiveReturnsTypedError(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	in := NewInjector(s, log, tg)
	a := mustInject(t, in, AppCrash, 0)
	mustRepair(t, a)
	err := a.Repair()
	if err == nil {
		t.Fatal("second Repair returned nil")
	}
	if !errors.Is(err, ErrNotActive) {
		t.Fatalf("double repair error %v does not wrap ErrNotActive", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "repair" || fe.Type != AppCrash || fe.Component != 0 {
		t.Fatalf("error fields wrong: %v", err)
	}
	// The double repair must not re-break anything.
	if !tg.Machines[0].Proc("press").Alive() {
		t.Fatal("app dead after double repair")
	}
}

// TestOverlappingFaultsRepairIndependently: partial repair — two active
// faults on the same node undo one at a time.
func TestOverlappingFaultsRepairIndependently(t *testing.T) {
	s, log, tg := testTargets(t, 2)
	in := NewInjector(s, log, tg)

	link := mustInject(t, in, LinkDown, 1)
	disk := mustInject(t, in, SCSITimeout, 2) // node 1, disk 0
	if tg.Machines[1].Iface().LinkUp() || !tg.Machines[1].Disks().AnyFaulty() {
		t.Fatal("overlapping faults not both applied")
	}

	mustRepair(t, link)
	if !tg.Machines[1].Iface().LinkUp() {
		t.Fatal("link not repaired")
	}
	if !tg.Machines[1].Disks().AnyFaulty() {
		t.Fatal("disk repaired by the link's repair (partial repair broken)")
	}
	if in.ActiveCount() != 1 || in.ActiveAt(SCSITimeout, 2) != disk {
		t.Fatalf("after partial repair: %d active, SCSI slot holds %v", in.ActiveCount(), in.ActiveAt(SCSITimeout, 2))
	}
	mustRepair(t, disk)
	if in.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d", in.ActiveCount())
	}
}

// TestFlapTogglesDeterministically: link flap toggles the effect on the
// sim clock at the configured cadence until repaired.
func TestFlapTogglesDeterministically(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	in := NewInjector(s, log, tg)
	a, err := in.InjectFlap(LinkDown, 0, Flap{On: 4 * time.Second, Off: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Flapping() {
		t.Fatal("fault does not report flapping")
	}
	if tg.Machines[0].Iface().LinkUp() {
		t.Fatal("link up right after flap injection")
	}
	s.RunFor(5 * time.Second) // t=5: in off phase (on 0-4, off 4-6)
	if !tg.Machines[0].Iface().LinkUp() {
		t.Fatal("link not restored during off phase")
	}
	s.RunFor(2 * time.Second) // t=7: in second on phase (6-10)
	if tg.Machines[0].Iface().LinkUp() {
		t.Fatal("link up during second on phase")
	}
	mustRepair(t, a)
	if !tg.Machines[0].Iface().LinkUp() {
		t.Fatal("repair did not restore the link")
	}
	s.RunFor(20 * time.Second)
	if !tg.Machines[0].Iface().LinkUp() {
		t.Fatal("flap kept toggling after repair")
	}
	// Inject/repair events paired in the log.
	inj := log.Query().Kind(metrics.KFaultInject).Count()
	rep := log.Query().Kind(metrics.KFaultRepair).Count()
	if inj < 2 || inj != rep {
		t.Fatalf("flap events unbalanced: %d injects, %d repairs", inj, rep)
	}
}

// TestFlapRepairDuringOffPhase: repairing while the effect is lifted must
// still end the fault cleanly (and never re-apply it).
func TestFlapRepairDuringOffPhase(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	in := NewInjector(s, log, tg)
	a, err := in.InjectFlap(SCSITimeout, 0, Flap{On: 3 * time.Second, Off: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(4 * time.Second) // off phase (3-8)
	if tg.Machines[0].Disks().AnyFaulty() {
		t.Fatal("disk faulty during off phase")
	}
	mustRepair(t, a)
	s.RunFor(30 * time.Second)
	if tg.Machines[0].Disks().AnyFaulty() {
		t.Fatal("flap re-applied after repair")
	}
	if in.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d", in.ActiveCount())
	}
	if err := a.Repair(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double repair of flap: %v", err)
	}
}

// TestInjectFlapValidatesSpans: zero spans are rejected up front.
func TestInjectFlapValidatesSpans(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	in := NewInjector(s, log, tg)
	if _, err := in.InjectFlap(LinkDown, 0, Flap{On: time.Second}); err == nil {
		t.Fatal("InjectFlap accepted zero off span")
	}
	if in.ActiveCount() != 0 {
		t.Fatal("failed InjectFlap left the slot claimed")
	}
}

func TestSCSIRepairRebootsOfflinedNode(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	in := NewInjector(s, log, tg)
	a := mustInject(t, in, SCSITimeout, 0)
	// FME takes the node offline while the disk is bad.
	tg.Machines[0].TakeOffline("disk failure")
	if tg.Machines[0].Up() {
		t.Fatal("node still up")
	}
	mustRepair(t, a)
	if !tg.Machines[0].Up() {
		t.Fatal("repair did not boot the offlined node")
	}
	if tg.Machines[0].Disks().AnyFaulty() {
		t.Fatal("disk still faulty after repair")
	}
}

func TestInjectLogsEvents(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	in := NewInjector(s, log, tg)
	a := mustInject(t, in, NodeCrash, 0)
	s.RunFor(time.Second)
	mustRepair(t, a)
	if _, ok := log.Query().Kind(metrics.KFaultInject).After(0).First(); !ok {
		t.Fatal("no inject event")
	}
	if _, ok := log.Query().Kind(metrics.KFaultRepair).After(0).First(); !ok {
		t.Fatal("no repair event")
	}
}

func TestApplicable(t *testing.T) {
	s, log, tg := testTargets(t, 1)
	tg.Frontend = nil
	in := NewInjector(s, log, tg)
	if in.Applicable(FrontendFailure) {
		t.Fatal("frontend fault applicable without a front-end")
	}
	if !in.Applicable(NodeCrash) {
		t.Fatal("node crash not applicable")
	}
}

func TestTypeString(t *testing.T) {
	if NodeFreeze.String() != "node-freeze" || Type(99).String() != "fault(99)" {
		t.Fatal("bad type names")
	}
	if len(AllTypes()) != int(numTypes) {
		t.Fatal("AllTypes incomplete")
	}
	for _, ft := range AllTypes() {
		got, err := ParseType(ft.String())
		if err != nil || got != ft {
			t.Fatalf("ParseType(%q) = %v, %v", ft.String(), got, err)
		}
	}
	if _, err := ParseType("nope"); err == nil {
		t.Fatal("ParseType accepted junk")
	}
}
