package fme_test

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/fme"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/trace"
)

// machineControl adapts a simulated machine to fme.Control the way the
// harness does.
type machineControl struct {
	s   *sim.Sim
	m   *machine.Machine
	app string

	offlines int
	restarts int
}

func (c *machineControl) TakeOffline(reason string) {
	c.offlines++
	c.m.TakeOffline(reason)
}

func (c *machineControl) RestartApp() {
	c.restarts++
	c.m.KillProc(c.app)
	c.s.After(10*time.Second, func() { c.m.StartProc(c.app) })
}

type fixture struct {
	sim   *sim.Sim
	log   *metrics.Log
	m     *machine.Machine
	disks *simdisk.Array
	ctl   *machineControl
	d     *fme.Daemon
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := sim.New(3)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	disks := simdisk.NewArray(s, s.NewRand("d"), simdisk.Config{MeanService: 20 * time.Millisecond, QueueCap: 8, Workers: 2}, 2)
	m := machine.New(s, net, 0, disks, log)
	cat := trace.NewCatalog(100, 27*1024, 0.8)
	m.AddProc("press", func(env *machine.Env) {
		server.New(server.Config{
			Self: 0, Nodes: []cnet.NodeID{0}, Cooperative: false, Catalog: cat,
		}, env, disks, nil)
	})
	ctl := &machineControl{s: s, m: m, app: "press"}
	fx := &fixture{sim: s, log: log, m: m, disks: disks, ctl: ctl}
	m.AddProc("fme", func(env *machine.Env) {
		fx.d = fme.NewDaemon(fme.Config{
			Self:        0,
			ProbePeriod: time.Second,
		}, env, disks, ctl)
	})
	return fx
}

func TestHealthyNodeNoActions(t *testing.T) {
	fx := newFixture(t)
	fx.sim.RunFor(60 * time.Second)
	if fx.ctl.offlines != 0 || fx.ctl.restarts != 0 {
		t.Fatalf("actions on healthy node: offlines=%d restarts=%d", fx.ctl.offlines, fx.ctl.restarts)
	}
}

func TestHangTranslatedToRestart(t *testing.T) {
	fx := newFixture(t)
	fx.sim.RunFor(5 * time.Second)
	fx.m.Proc("press").Hang()
	fx.sim.RunFor(15 * time.Second)
	if fx.ctl.restarts != 1 {
		t.Fatalf("restarts = %d, want 1", fx.ctl.restarts)
	}
	if fx.ctl.offlines != 0 {
		t.Fatalf("offlines = %d on a healthy disk", fx.ctl.offlines)
	}
	// After the restart delay the app is back and responsive: no more
	// actions accumulate.
	fx.sim.RunFor(60 * time.Second)
	if fx.ctl.restarts != 1 {
		t.Fatalf("extra restarts: %d", fx.ctl.restarts)
	}
	if !fx.m.Proc("press").Alive() || fx.m.Proc("press").Hung() {
		t.Fatal("app not healthy after crash-restart translation")
	}
	if _, ok := fx.log.Query().Kind(metrics.KFMEAction).After(0).First(); !ok {
		t.Fatal("no FME action event logged")
	}
}

func TestDiskFaultPlusWedgeTakesNodeOffline(t *testing.T) {
	fx := newFixture(t)
	fx.sim.RunFor(5 * time.Second)
	for _, d := range fx.disks.Disks() {
		d.SetFaulty(true)
	}
	// Wedge the app the way a full disk queue eventually does.
	fx.m.Proc("press").Hang()
	fx.sim.RunFor(15 * time.Second)
	if fx.ctl.offlines != 1 {
		t.Fatalf("offlines = %d, want 1", fx.ctl.offlines)
	}
	if fx.ctl.restarts != 0 {
		t.Fatalf("restarts = %d; a doomed restart on a bad disk", fx.ctl.restarts)
	}
	if fx.m.Up() {
		t.Fatal("node still up")
	}
}

func TestDiskFaultAloneWaits(t *testing.T) {
	fx := newFixture(t)
	fx.sim.RunFor(5 * time.Second)
	fx.disks.Disks()[0].SetFaulty(true)
	// The app still answers probes (no load, queue empty): FME must wait.
	fx.sim.RunFor(30 * time.Second)
	if fx.ctl.offlines != 0 || fx.ctl.restarts != 0 {
		t.Fatalf("premature action: offlines=%d restarts=%d", fx.ctl.offlines, fx.ctl.restarts)
	}
}

func TestCrashedAppLeftToNormalRestartPath(t *testing.T) {
	fx := newFixture(t)
	fx.sim.RunFor(5 * time.Second)
	fx.m.KillProc("press")
	fx.sim.RunFor(30 * time.Second)
	if fx.ctl.restarts != 0 || fx.ctl.offlines != 0 {
		t.Fatalf("FME acted on a crash: offlines=%d restarts=%d", fx.ctl.offlines, fx.ctl.restarts)
	}
}

func TestActionsCounter(t *testing.T) {
	fx := newFixture(t)
	fx.sim.RunFor(5 * time.Second)
	fx.m.Proc("press").Hang()
	fx.sim.RunFor(15 * time.Second)
	if fx.d.Actions() != 1 {
		t.Fatalf("Actions = %d", fx.d.Actions())
	}
}
