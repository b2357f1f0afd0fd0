package machine

import (
	"fmt"
	"runtime"
	"testing"

	"press/internal/simnet"
	"press/internal/snapio"
)

// An incarnation's random stream is built by its first Rand call: one
// that never draws keeps no stream, so a restart allocates far less than
// the 4.9 KB source would take. The stream a late first call builds is
// the one the incarnation would have had from boot.
func TestRandBuiltOnFirstDraw(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	p := m.AddProc("quiet", func(*Env) {})
	if p.Env().rand != nil {
		t.Fatal("an incarnation that never drew holds a random stream")
	}

	const restarts = 50
	restart := func() {
		m.KillProc("quiet")
		m.StartProc("quiet")
	}
	restart()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range restarts {
		restart()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / restarts; per >= 4096 {
		t.Errorf("a restart that never draws allocates %d bytes, want under 4 KB (no random source)", per)
	}

	want := w.sim.NewRand(fmt.Sprintf("node0/quiet/%d", p.incarnation)).Int63()
	if got := p.Env().Rand().Int63(); got != want {
		t.Errorf("first draw of incarnation %d is %d, want %d", p.incarnation, got, want)
	}
}

// snapMachine captures m and restores it onto a fresh machine of the same
// shape, returning the restored one.
func snapMachine(t *testing.T, w *world, m *Machine, procs ...string) *Machine {
	t.Helper()
	newCtx := func(w *world) *snapio.Ctx {
		return &snapio.Ctx{World: &snapio.World{Sim: w.sim, Conns: snapio.NewRefTable(simnet.BlankConn), Owners: snapio.NewRefTable(nil), Msgs: snapio.NewMsgCodec()}}
	}
	x := newCtx(w)
	x.Enc = new(snapio.Encoder)
	x.CapturePending()
	m.SnapState(x)
	m.SnapOwners(x)

	w2 := newWorld()
	m2 := New(w2.sim, w2.net, m.ID(), nil, w2.log)
	for _, name := range procs {
		m2.AddProcCold(name, func(*Env) {})
	}
	y := newCtx(w2)
	y.Dec = snapio.NewDecoder(x.Enc.Bytes())
	m2.SnapState(y)
	m2.SnapOwners(y)
	m2.FinishRestore()
	return m2
}

// A capture writes the stream an incarnation would have, drawn or not:
// after a restore, a process that never drew makes the first draw of the
// stream built at boot, and one that drew continues where it stopped.
func TestRandStreamSurvivesCapture(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	m.AddProc("quiet", func(*Env) {})
	drew := m.AddProc("drew", func(e *Env) { e.Rand().Int63() })

	m2 := snapMachine(t, w, m, "quiet", "drew")
	if got, want := m2.Proc("quiet").Env().Rand().Int63(), w.sim.NewRand("node0/quiet/1").Int63(); got != want {
		t.Errorf("restored undrawn stream draws %d first, want %d (the stream built at boot)", got, want)
	}
	if got, want := m2.Proc("drew").Env().Rand().Int63(), drew.Env().Rand().Int63(); got != want {
		t.Errorf("restored drawn stream draws %d next, want %d", got, want)
	}
	if m.Proc("quiet").Env().rand != nil {
		t.Error("a capture built the stream of the incarnation it captured")
	}
}
