package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/livenet"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/trace"
)

// The live3 recipe: cmd/pressd's topology and parameters, no kill.
const (
	liveNodes    = 3
	liveHB       = 500 * time.Millisecond
	liveRequests = 10000
	liveWarmup   = 200
	liveFE       = cnet.NodeID(90)
	// The paper's client timeouts; without them one lost reply hangs a
	// closed loop for good.
	liveConnectTimeout  = 2 * time.Second
	liveCompleteTimeout = 6 * time.Second
	// liveLimit is the latency limit of the availability metric.
	liveLimit = 50 * time.Millisecond
)

// liveCluster is pressd's cluster built in-process on livenet.
type liveCluster struct {
	w       *livenet.World
	cat     *trace.Catalog
	procs   []*livenet.Proc
	servers []*liveServer
	fe      *frontend.Frontend
	feEnv   cnet.Env
	windows int // request windows run so far; each gets a client node of its own
}

// liveServer is one PRESS process and the Env whose dispatch loop owns it.
type liveServer struct {
	srv *server.Server
	env cnet.Env
}

// buildLive spawns the cluster's processes and returns once each PRESS
// server and the front-end has been constructed on its own loop.
func buildLive(seed int64) *liveCluster {
	lc := &liveCluster{w: livenet.NewWorld(seed), cat: trace.NewCatalog(500, 27*1024, 0.8)}
	built := make(chan struct{}, liveNodes+1) // one send per server and one for the front-end
	ids := make([]cnet.NodeID, liveNodes)
	for i := range ids {
		ids[i] = cnet.NodeID(i)
	}
	for i := range ids {
		n := lc.w.AddNode(ids[i])
		pub := &membership.Published{}
		ls := &liveServer{}
		lc.servers = append(lc.servers, ls)
		lc.procs = append(lc.procs,
			n.Spawn("membd", func(env cnet.Env) {
				membership.NewDaemon(membership.Config{Self: ids[i], HBPeriod: liveHB, HBMiss: 3, Peers: ids}, env, pub)
			}),
			n.Spawn("icmp", func(env cnet.Env) { frontend.NewPingResponder(env) }),
			n.Spawn("press", func(env cnet.Env) {
				ls.env = env
				ls.srv = server.New(server.Config{
					Self: ids[i], Nodes: ids, Cooperative: true,
					HeartbeatPeriod: liveHB, JoinTimeout: time.Second,
					Catalog: lc.cat, CacheBytes: lc.cat.TotalBytes(),
					MembershipPoll: liveHB / 2,
				}, env, livenet.MemDisk{Service: time.Millisecond}, membership.NewClient(env, pub, liveHB/2))
				built <- struct{}{}
			}))
	}
	lc.procs = append(lc.procs, lc.w.AddNode(liveFE).Spawn("frontend", func(env cnet.Env) {
		lc.feEnv = env
		lc.fe = frontend.New(frontend.Config{
			Self: liveFE, Backends: ids, PingPeriod: liveHB, PingMiss: 3,
			ConnMonitor: true, ConnPeriod: liveHB, ConnDeadline: 2 * liveHB,
		}, env)
		built <- struct{}{}
	}))
	for i := 0; i < liveNodes+1; i++ {
		<-built
	}
	return lc
}

func (lc *liveCluster) stop() {
	for _, p := range lc.procs {
		p.Kill()
	}
}

// onLoop runs fn on env's dispatch loop, where the component's state may
// be read without a race, and waits for it.
func onLoop(env cnet.Env, fn func()) bool {
	done := make(chan struct{})
	env.Clock().AfterFunc(0, func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

// formed reports whether every server holds the full cooperation view
// and the front-end counts every backend healthy.
func (lc *liveCluster) formed() bool {
	healthy := 0
	if !onLoop(lc.feEnv, func() { healthy = len(lc.fe.Healthy()) }) || healthy != liveNodes {
		return false
	}
	for _, ls := range lc.servers {
		view := 0
		if !onLoop(ls.env, func() { view = len(ls.srv.View()) }) || view != liveNodes {
			return false
		}
	}
	return true
}

// stats sums the servers' counters, each read on its own loop.
func (lc *liveCluster) stats() server.Stats {
	var total server.Stats
	for _, ls := range lc.servers {
		onLoop(ls.env, func() { addStats(&total, ls.srv.Stats()) })
	}
	return total
}

// liveLoad is one closed-loop request window shared by the client
// connections: each dials the front-end, sends a ReqMsg, awaits the
// RespMsg, closes, and only then takes the next request.
type liveLoad struct {
	lc     *liveCluster
	rec    *recorder
	parent int

	mu       sync.Mutex
	left     int
	issued   int
	inflight int
	latMs    []float64 // answered OK, dial to RespMsg
	connFail int
	compFail int
	done     chan struct{}
}

// run issues n requests over conns client connections and waits for all
// of them to finish.
func (lc *liveCluster) run(rec *recorder, parent int, seed int64, conns, n int) *liveLoad {
	ld := &liveLoad{lc: lc, rec: rec, parent: parent, left: n, done: make(chan struct{})}
	var procs []*livenet.Proc
	node := lc.w.AddNode(cnet.NodeID(1000 + lc.windows))
	lc.windows++
	for i := 0; i < conns; i++ {
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		procs = append(procs, node.Spawn(fmt.Sprintf("client%d", i), func(env cnet.Env) { ld.next(env, rng) }))
	}
	<-ld.done
	for _, p := range procs {
		p.Kill()
	}
	return ld
}

// next takes one request off the window, or ends the window when the
// last one has finished. It runs on the client's dispatch loop, as does
// every callback below, so a request's own state needs no lock.
func (ld *liveLoad) next(env cnet.Env, rng *rand.Rand) {
	ld.mu.Lock()
	if ld.left == 0 {
		if ld.inflight == 0 {
			select {
			case <-ld.done:
			default:
				close(ld.done)
			}
		}
		ld.mu.Unlock()
		return
	}
	ld.left--
	ld.inflight++
	seq := ld.issued
	ld.issued++
	ld.mu.Unlock()

	// One request in a hundred carries spans in a traced run.
	var reqSpan, phase int
	if ld.rec != nil && seq%100 == 0 {
		reqSpan = ld.rec.start(ld.parent, "live3.request", "pressbench", false)
		phase = ld.rec.start(reqSpan, "livenet.dial", "livenet", false)
	}
	t0 := time.Now()
	finished := false
	var timer clock.Timer
	finish := func(ok, connecting bool) {
		if finished {
			return
		}
		finished = true
		timer.Stop()
		lat := time.Since(t0)
		ld.rec.end(phase)
		ld.rec.end(reqSpan)
		ld.mu.Lock()
		ld.inflight--
		switch {
		case ok:
			ld.latMs = append(ld.latMs, float64(lat)/float64(time.Millisecond))
		case connecting:
			ld.connFail++
		default:
			ld.compFail++
		}
		ld.mu.Unlock()
		ld.next(env, rng)
	}
	timer = env.Clock().AfterFunc(liveConnectTimeout, func() { finish(false, true) })
	h := cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) {
			if r, ok := m.(*server.RespMsg); ok {
				c.Close()
				finish(r.OK, false)
			}
		},
		OnClose: func(cnet.Conn, error) { finish(false, false) },
	}
	doc := ld.lc.cat.Sample(rng)
	env.Dial(liveFE, cnet.ClassClient, server.PortHTTP, h, func(c cnet.Conn, err error) {
		if finished {
			if c != nil {
				c.Close()
			}
			return
		}
		if err != nil {
			finish(false, true)
			return
		}
		timer.Stop()
		timer = env.Clock().AfterFunc(liveCompleteTimeout, func() {
			c.Close()
			finish(false, false)
		})
		if reqSpan != 0 {
			ld.rec.end(phase)
			phase = ld.rec.start(reqSpan, "server.request_reply", "server", false)
		}
		c.TrySend(&server.ReqMsg{ID: uint64(seq), Doc: doc}, 256)
	})
}

// withinLimit counts the requests answered OK inside the latency limit.
func (ld *liveLoad) withinLimit() int {
	n := 0
	for _, ms := range ld.latMs {
		if ms <= float64(liveLimit)/float64(time.Millisecond) {
			n++
		}
	}
	return n
}

// runLive3 is one live3 child: one cluster, one request window. The
// supervisor starts a fresh process per window, so a window's descriptors
// and heap are its own.
func runLive3(cfg runConfig) *result {
	m := newMeter(cfg)
	m.everyRepeat, m.rawSetup = true, true
	res := m.res
	requests, warmup := liveRequests, liveWarmup
	if cfg.Smoke {
		requests, warmup = 200, 20
	}
	conns := runtime.NumCPU()

	m.sampleYard()
	built := time.Now()
	lc := buildLive(cfg.Seed)
	defer lc.stop()
	deadline := time.Now().Add(20 * time.Second)
	for !lc.formed() {
		if time.Now().After(deadline) {
			res.Ops = requests
			res.fail(requests, "live3: cluster did not form within 20 s")
			return res
		}
		time.Sleep(20 * time.Millisecond)
	}
	formation := time.Since(built)
	if warm := lc.run(nil, 0, cfg.Seed+1<<20, conns, warmup); len(warm.latMs) != warmup {
		res.Ops = requests
		res.fail(requests, "live3: %d of %d warm-up requests failed on a formed cluster", warmup-len(warm.latMs), warmup)
		return res
	}
	m.setupDone(built)

	fd0, mem0 := openFDs(), readMem()
	var ld *liveLoad
	wall := m.repeat(func() (int, int, string) {
		id := m.rec.start(0, "live3.window", "pressbench", true)
		ld = lc.run(m.rec, id, cfg.Seed, conns, requests)
		m.rec.end(id)
		// Host-clock outputs have no fingerprint to compare; every
		// request's reply was checked as it arrived.
		return requests, requests - len(ld.latMs), ""
	})
	fd1, mem1 := openFDs(), readMem()
	m.sampleYard()
	res.add("availability", float64(ld.withinLimit())/float64(requests))
	res.add("served_rps", float64(len(ld.latMs))/(wall/m.slowdown()))

	if cfg.Trace {
		res.add("livenet.req_per_s", float64(requests)/wall)
		res.add("livenet.p50_ms", median(ld.latMs))
		if q, v := highestPercentile(ld.latMs); q < 0.99 {
			res.add("livenet.p99_ms", v) // too few samples for a p99 to mean anything
		} else {
			res.add("livenet.p99_ms", quantile(ld.latMs, 0.99))
		}
		res.add("livenet.cpu_us_per_req", median(res.Samples["goruntime.cpu_s"])*1e6/float64(requests))
		res.add("livenet.fds_per_request", float64(fd1-fd0)/float64(requests))
		res.add("livenet.formation_s", formation.Seconds())
		res.add("livenet.goroutines_end", float64(runtime.NumGoroutine()))
		res.add("workload.offered", float64(requests))
		res.add("workload.succeeded", float64(len(ld.latMs)))
		res.add("workload.connect_failures", float64(ld.connFail))
		res.add("workload.complete_failures", float64(ld.compFail))
		serverRatios(res, lc.stats())
		res.add("metrics.log_events", float64(lc.w.Log().Len()))
		res.add("goruntime.allocs_per_repeat", float64(mem1.mallocs-mem0.mallocs))
		res.add("goruntime.num_gc", float64(mem1.numGC-mem0.numGC))
		heap := liveHeapMB()
		runtime.KeepAlive(lc)
		res.add("goruntime.live_heap_mb", heap)
		trips := 500
		if cfg.Smoke {
			trips = 20
		}
		liveRTT(res, m.rec, trips)
	}
	return m.finish()
}
