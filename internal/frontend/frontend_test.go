package frontend_test

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simnet"
	"press/internal/trace"
	"press/internal/workload"
)

type feWorld struct {
	sim      *sim.Sim
	net      *simnet.Network
	log      *metrics.Log
	fe       **frontend.Frontend
	feMach   *machine.Machine
	backends []*machine.Machine
	rec      *workload.Recorder
	gen      *workload.Generator
}

// newFEWorld builds: clients -> FE(100) -> n backend PRESS nodes (INDEP
// mode keeps the focus on the front-end).
func newFEWorld(t *testing.T, n int, feCfg frontend.Config) *feWorld {
	t.Helper()
	s := sim.New(5)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	w := &feWorld{sim: s, net: net, log: log}
	cat := trace.NewCatalog(500, 27*1024, 0.8)

	var ids []cnet.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, cnet.NodeID(i))
	}
	for i := 0; i < n; i++ {
		i := i
		m := machine.New(s, net, ids[i], nil, log)
		m.AddProc("icmp", func(env *machine.Env) { frontend.NewPingResponder(env) })
		m.AddProc("press", func(env *machine.Env) {
			server.New(server.Config{
				Self: ids[i], Nodes: ids, Cooperative: false, Catalog: cat,
				CacheBytes: cat.TotalBytes(), // everything cached: no disks needed
			}, env, nullDisk{}, nil)
		})
		w.backends = append(w.backends, m)
	}

	feCfg.Self = 100
	feCfg.Backends = ids
	w.feMach = machine.New(s, net, 100, nil, log)
	w.fe = new(*frontend.Frontend)
	w.feMach.AddProc("frontend", func(env *machine.Env) {
		*w.fe = frontend.New(feCfg, env)
	})

	w.rec = workload.NewRecorder()
	w.gen = workload.NewGenerator(s, net, 1000, workload.Config{
		Rate: 40, Targets: []cnet.NodeID{100}, Catalog: cat,
	}, w.rec)
	return w
}

// nullDisk satisfies server.DiskArray for fully-cached configurations.
type nullDisk struct{}

func (nullDisk) ReadFor(key int, owner interface{ DiskDone(ok bool) }) bool {
	owner.DiskDone(true)
	return true
}
func (nullDisk) NotifySpace(interface{ DiskSpace() }) {}

func (w *feWorld) warm(t *testing.T) {
	t.Helper()
	w.sim.RunFor(2 * time.Second)
	w.gen.Start()
	w.sim.RunFor(5 * time.Second)
}

func TestRelayHappyPath(t *testing.T) {
	w := newFEWorld(t, 3, frontend.Config{PingPeriod: time.Second})
	w.warm(t)
	w.sim.RunFor(20 * time.Second)
	if av := w.rec.Availability(2*time.Second, w.sim.Now()-7*time.Second); av < 0.999 {
		t.Fatalf("availability through FE %v (failed=%d)", av, w.rec.Failed)
	}
	if (*w.fe).Relayed() == 0 {
		t.Fatal("nothing relayed")
	}
}

func TestPingMasksCrashedNode(t *testing.T) {
	w := newFEWorld(t, 3, frontend.Config{PingPeriod: time.Second, PingMiss: 3})
	w.warm(t)
	crashAt := w.sim.Now()
	w.backends[1].Crash()
	w.sim.RunFor(10 * time.Second)
	healthy := (*w.fe).Healthy()
	if len(healthy) != 2 {
		t.Fatalf("healthy = %v after crash", healthy)
	}
	ev, ok := w.log.Query().After(crashAt).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KFrontendMask && e.Node == 1
	})
	if !ok {
		t.Fatal("no mask event")
	}
	// Detection within ~PingMiss+1 periods.
	if ev.At-crashAt > 5*time.Second {
		t.Fatalf("masking took %v", ev.At-crashAt)
	}
	// After masking, availability is restored.
	if av := w.rec.Availability(w.sim.Now()-4*time.Second, w.sim.Now()-2*time.Second); av < 0.99 {
		t.Fatalf("availability after masking %v", av)
	}
	// Recovery unmasks.
	w.backends[1].Restart()
	w.sim.RunFor(5 * time.Second)
	if len((*w.fe).Healthy()) != 3 {
		t.Fatalf("healthy = %v after restart", (*w.fe).Healthy())
	}
}

func TestPingBlindToAppCrash(t *testing.T) {
	// The paper's §6.1 observation: ping-based monitoring cannot see
	// application-level faults, so requests keep flowing to the dead app.
	w := newFEWorld(t, 3, frontend.Config{PingPeriod: time.Second, PingMiss: 3})
	w.warm(t)
	w.backends[1].KillProc("press")
	w.sim.RunFor(20 * time.Second)
	if got := len((*w.fe).Healthy()); got != 3 {
		t.Fatalf("ping monitor masked an app crash (healthy=%d)", got)
	}
	// Roughly a third of requests die.
	av := w.rec.Availability(w.sim.Now()-15*time.Second, w.sim.Now()-5*time.Second)
	if av > 0.80 || av < 0.45 {
		t.Fatalf("availability %v, want ~2/3", av)
	}
}

func TestCMonMasksAppCrashFast(t *testing.T) {
	w := newFEWorld(t, 3, frontend.Config{
		PingPeriod: time.Second, PingMiss: 3,
		ConnMonitor: true, ConnPeriod: time.Second, ConnDeadline: 2 * time.Second,
	})
	w.warm(t)
	crashAt := w.sim.Now()
	w.backends[1].KillProc("press")
	w.sim.RunFor(5 * time.Second)
	if got := len((*w.fe).Healthy()); got != 2 {
		t.Fatalf("C-MON did not mask the app crash (healthy=%d)", got)
	}
	ev, _ := w.log.Query().After(crashAt).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KFrontendMask && e.Node == 1
	})
	if ev.At-crashAt > 3*time.Second {
		t.Fatalf("C-MON detection took %v, want ~2s", ev.At-crashAt)
	}
	// Restart: unmasked again.
	w.backends[1].StartProc("press")
	w.sim.RunFor(5 * time.Second)
	if got := len((*w.fe).Healthy()); got != 3 {
		t.Fatalf("C-MON did not unmask after restart (healthy=%d)", got)
	}
}

func TestCMonMasksAppHang(t *testing.T) {
	w := newFEWorld(t, 3, frontend.Config{
		PingPeriod: time.Second, PingMiss: 3,
		ConnMonitor: true, ConnPeriod: time.Second, ConnDeadline: 2 * time.Second,
	})
	w.warm(t)
	w.backends[2].Proc("press").Hang()
	w.sim.RunFor(6 * time.Second)
	if got := len((*w.fe).Healthy()); got != 2 {
		t.Fatalf("C-MON did not mask the hung app (healthy=%d)", got)
	}
	w.backends[2].Proc("press").Unhang()
	w.sim.RunFor(6 * time.Second)
	if got := len((*w.fe).Healthy()); got != 3 {
		t.Fatalf("C-MON did not unmask after unhang (healthy=%d)", got)
	}
}

func TestNoHealthyBackendsFailsFast(t *testing.T) {
	w := newFEWorld(t, 2, frontend.Config{PingPeriod: time.Second, PingMiss: 3})
	w.warm(t)
	w.backends[0].Crash()
	w.backends[1].Crash()
	w.sim.RunFor(10 * time.Second)
	before := w.rec.Failed
	w.sim.RunFor(5 * time.Second)
	if w.rec.Failed == before {
		t.Fatal("no failures recorded with all backends down")
	}
}

func TestFrontendCrashKillsService(t *testing.T) {
	w := newFEWorld(t, 3, frontend.Config{PingPeriod: time.Second})
	w.warm(t)
	w.feMach.Crash()
	w.sim.RunFor(10 * time.Second)
	if av := w.rec.Availability(w.sim.Now()-6*time.Second, w.sim.Now()-3*time.Second); av > 0.05 {
		t.Fatalf("availability %v with FE down, want ~0", av)
	}
	w.feMach.Restart()
	w.sim.RunFor(10 * time.Second)
	if av := w.rec.Availability(w.sim.Now()-4*time.Second, w.sim.Now()-2*time.Second); av < 0.95 {
		t.Fatalf("availability %v after FE restart", av)
	}
}

// sfmeBackend fakes a PRESS node that answers probes with a given view.
func sfmeBackend(s *sim.Sim, net *simnet.Network, m *machine.Machine, view *[]cnet.NodeID) {
	m.AddProc("fake", func(env *machine.Env) {
		env.Listen(server.PortHTTP, func(c cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, msg cnet.Message) {
				if req, ok := msg.(*server.ReqMsg); ok && req.Probe {
					c.TrySend(&server.RespMsg{ID: req.ID, OK: true, Probe: true, View: *view}, 128)
				}
			}}
		})
	})
}

func TestSFMEMasksIsolatedNode(t *testing.T) {
	s := sim.New(6)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	views := make([]*[]cnet.NodeID, 3)
	var ids []cnet.NodeID
	for i := 0; i < 3; i++ {
		ids = append(ids, cnet.NodeID(i))
	}
	for i := 0; i < 3; i++ {
		m := machine.New(s, net, ids[i], nil, log)
		m.AddProc("icmp", func(env *machine.Env) { frontend.NewPingResponder(env) })
		v := append([]cnet.NodeID(nil), ids...)
		views[i] = &v
		sfmeBackend(s, net, m, views[i])
	}
	feMach := machine.New(s, net, 100, nil, log)
	var fe *frontend.Frontend
	feMach.AddProc("frontend", func(env *machine.Env) {
		fe = frontend.New(frontend.Config{
			Self: 100, Backends: ids,
			PingPeriod: time.Second, SFME: true, ConnPeriod: time.Second,
		}, env)
	})
	s.RunFor(5 * time.Second)
	if got := len(fe.Healthy()); got != 3 {
		t.Fatalf("healthy = %d before splinter", got)
	}
	// Node 2 splinters into a singleton.
	*views[0] = []cnet.NodeID{0, 1}
	*views[1] = []cnet.NodeID{0, 1}
	*views[2] = []cnet.NodeID{2}
	s.RunFor(5 * time.Second)
	healthy := fe.Healthy()
	if len(healthy) != 2 || healthy[0] != 0 || healthy[1] != 1 {
		t.Fatalf("S-FME healthy = %v, want [0 1]", healthy)
	}
	// Reintegration unmasks.
	full := []cnet.NodeID{0, 1, 2}
	*views[0], *views[1], *views[2] = full, full, full
	s.RunFor(5 * time.Second)
	if got := len(fe.Healthy()); got != 3 {
		t.Fatalf("healthy = %d after reintegration", got)
	}
}

// relayRig is a front-end between hand-driven clients and a backend that
// answers only when told to: the relay's corner cases are a matter of
// which callback the front-end's mailbox dispatches first.
type relayRig struct {
	sim     *sim.Sim
	clients *simnet.Iface
	pending []heldReq // requests the backend has received and not answered
}

type heldReq struct {
	conn cnet.Conn
	id   uint64
}

func newRelayRig() *relayRig {
	s := sim.New(5)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	rig := &relayRig{sim: s, clients: net.AddIface(1000)}
	net.AddIface(0).Listen(server.PortHTTP, func(cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
			rig.pending = append(rig.pending, heldReq{c, m.(*server.ReqMsg).ID})
		}}
	})
	machine.New(s, net, 100, nil, log).AddProc("frontend", func(env *machine.Env) {
		frontend.New(frontend.Config{Self: 100, Backends: []cnet.NodeID{0}, PingPeriod: time.Hour}, env)
	})
	return rig
}

// client dials the front-end and records the response IDs it is sent.
func (r *relayRig) client(got *[]uint64) (conn cnet.Conn) {
	r.clients.Dial(100, cnet.ClassClient, server.PortHTTP, cnet.StreamHandlers{
		OnMessage: func(_ cnet.Conn, m cnet.Message) { *got = append(*got, m.(*server.RespMsg).ID) },
	}, func(c cnet.Conn, err error) { conn = c })
	r.sim.RunFor(time.Millisecond)
	return conn
}

// answer makes the backend reply to every request it holds.
func (r *relayRig) answer() {
	for _, p := range r.pending {
		p.conn.TrySend(&server.RespMsg{ID: p.id, OK: true}, 1024)
	}
	r.pending = nil
}

// A backend response that was already queued in the front-end's mailbox
// when the relay tore down must die with that relay, even though its
// pooled record has been handed to the next client by the time the
// response is dispatched.
func TestLateBackendResponseNeverReachesTheNextClient(t *testing.T) {
	// A step is a fifth of the relay's CPU cost, 100 µs: two network
	// hops, so what is sent in one step has arrived by the next.
	const cost = frontend.RelayCost
	const step = cost / 5
	rig := newRelayRig()
	var gotA, gotB, gotC, gotD []uint64
	a, c, d := rig.client(&gotA), rig.client(&gotC), rig.client(&gotD)

	a.TrySend(&server.ReqMsg{ID: 'A'}, 256)
	rig.sim.RunFor(2 * cost) // relayed: the backend holds A's request
	if len(rig.pending) != 1 {
		t.Fatalf("backend holds %d requests, want A's", len(rig.pending))
	}

	c.TrySend(&server.ReqMsg{ID: 'C'}, 256) // keeps the front-end busy for one cost
	rig.sim.RunFor(step)
	a.Close() // queued: A's relay tears down and recycles its record ...
	rig.sim.RunFor(step)
	d.TrySend(&server.ReqMsg{ID: 'D'}, 256) // ... then the front-end is busy again ...
	rig.sim.RunFor(step)
	rig.answer() // ... with A's response queued behind it (C's is not relayed yet)
	rig.sim.RunFor(cost)

	// B connects while D is being charged and inherits A's record.
	b := rig.client(&gotB)
	b.TrySend(&server.ReqMsg{ID: 'B'}, 256)
	rig.sim.RunFor(4 * cost)
	rig.answer()
	rig.sim.RunFor(4 * cost)

	if len(gotA) != 0 {
		t.Errorf("closed client A was sent %q", gotA)
	}
	for name, got := range map[string][]uint64{"B": gotB, "C": gotC, "D": gotD} {
		if len(got) != 1 || got[0] != uint64(name[0]) {
			t.Errorf("client %s was sent %q, want its own response only", name, got)
		}
	}
}

// Relaying allocates nothing per request: the relay record, its handlers
// and the dial callback are pooled (seven closures per request before).
func TestRelayAllocatesNothingPerRequest(t *testing.T) {
	s := sim.New(5)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	var pool cnet.MsgPool[server.RespMsg]
	echo := cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
		req := m.(*server.ReqMsg)
		resp := server.NewRespMsg(&pool)
		resp.ID, resp.OK = req.ID, true
		req.Release()
		c.TrySend(resp, 256)
	}}
	net.AddIface(0).Listen(server.PortHTTP, func(cnet.Conn) cnet.StreamHandlers { return echo })
	var fe *frontend.Frontend
	machine.New(s, net, 100, nil, log).AddProc("frontend", func(env *machine.Env) {
		fe = frontend.New(frontend.Config{Self: 100, Backends: []cnet.NodeID{0}, PingPeriod: time.Hour}, env)
	})
	rec := workload.NewRecorder()
	gen := workload.NewGenerator(s, net, 1000, workload.Config{
		Rate: 500, Targets: []cnet.NodeID{100}, Catalog: trace.NewCatalog(500, 27*1024, 0.8),
	}, rec)
	gen.Start()
	s.RunFor(2 * time.Second)
	const window = 200 * time.Millisecond // ~100 requests
	perWindow := testing.AllocsPerRun(20, func() { s.RunFor(window) })
	if perWindow > 5 {
		t.Errorf("%v allocations per %v of relaying (~100 requests), want next to none", perWindow, window)
	}
	if rec.Failed != 0 || fe.Relayed() < 1000 {
		t.Errorf("relayed %d, failed %d", fe.Relayed(), rec.Failed)
	}
}
