package frontend_test

import (
	"testing"
	"time"

	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simnet"
)

type fakeTakeover struct{ calls int }

func (f *fakeTakeover) Takeover() { f.calls++ }

func standbyWorld(t *testing.T) (*sim.Sim, *simnet.Network, *metrics.Log, *machine.Machine, *machine.Machine) {
	t.Helper()
	s := sim.New(4)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	primary := machine.New(s, net, 90, nil, log)
	primary.AddProc("fepair", func(env *machine.Env) { frontend.NewPairResponder(env) })
	backup := machine.New(s, net, 91, nil, log)
	return s, net, log, primary, backup
}

func TestStandbyQuietWhilePrimaryHealthy(t *testing.T) {
	s, _, _, _, backup := standbyWorld(t)
	ctl := &fakeTakeover{}
	backup.AddProc("standby", func(env *machine.Env) {
		frontend.NewStandby(frontend.StandbyConfig{Self: 91, Primary: 90, HBPeriod: time.Second}, env, ctl)
	})
	s.RunFor(60 * time.Second)
	if ctl.calls != 0 {
		t.Fatalf("takeover fired %d times with healthy primary", ctl.calls)
	}
}

func TestStandbyTakesOverOnPrimaryCrash(t *testing.T) {
	s, _, log, primary, backup := standbyWorld(t)
	ctl := &fakeTakeover{}
	var sb *frontend.Standby
	backup.AddProc("standby", func(env *machine.Env) {
		sb = frontend.NewStandby(frontend.StandbyConfig{Self: 91, Primary: 90, HBPeriod: time.Second}, env, ctl)
	})
	s.RunFor(10 * time.Second)
	crashAt := s.Now()
	primary.Crash()
	s.RunFor(10 * time.Second)
	if ctl.calls != 1 {
		t.Fatalf("takeover calls = %d, want 1", ctl.calls)
	}
	if !sb.Active() {
		t.Fatal("standby not active after takeover")
	}
	ev, ok := log.Query().Kind(frontend.KTakeover).After(crashAt).First()
	if !ok {
		t.Fatal("no takeover event")
	}
	// Detection within ~standbyMiss+1 heartbeats.
	if ev.At-crashAt > 6*time.Second {
		t.Fatalf("takeover took %v", ev.At-crashAt)
	}
	// No failback: the primary's return must not trigger anything more.
	primary.Restart()
	s.RunFor(20 * time.Second)
	if ctl.calls != 1 {
		t.Fatalf("takeover calls after primary return = %d", ctl.calls)
	}
}

func TestStandbySurvivesTransientMisses(t *testing.T) {
	s, _, _, primary, backup := standbyWorld(t)
	ctl := &fakeTakeover{}
	backup.AddProc("standby", func(env *machine.Env) {
		frontend.NewStandby(frontend.StandbyConfig{Self: 91, Primary: 90, HBPeriod: time.Second}, env, ctl)
	})
	s.RunFor(5 * time.Second)
	// A freeze shorter than the miss budget must not flip the VIP.
	primary.Freeze()
	s.RunFor(1500 * time.Millisecond)
	primary.Unfreeze()
	s.RunFor(10 * time.Second)
	if ctl.calls != 0 {
		t.Fatalf("takeover on a transient %d", ctl.calls)
	}
}
