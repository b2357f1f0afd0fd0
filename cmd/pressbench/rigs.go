package main

import (
	"math/rand"
	"sync"
	"time"

	"press/internal/cnet"
	"press/internal/livenet"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/trace"
	"press/internal/workload"
)

// Bare-layer rigs: each drives one layer through its exported API on a
// kernel with nothing else attached, for at least a million operations,
// and reports the median of three runs. div shrinks the operation count
// for the smoke pass.

const rigRuns = 3

// rig runs fn rigRuns times; fn returns the operations it performed and
// the host time they took. It records the median ns per operation.
func rig(res *result, rec *recorder, name string, fn func() (ops int, d time.Duration)) {
	var ns []float64
	rec.do(0, "rig/"+name, "rigs", func(int) {
		for i := 0; i < rigRuns; i++ {
			ops, d := fn()
			ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		}
	})
	res.add(name, median(ns))
}

// kernelRig is reproduce -bench's event-loop rig: chains of
// self-rescheduling pooled timers stepped for total events.
func kernelRig(chains, total int) (eventsPerS, allocsPerEvent float64) {
	s := sim.New(1)
	deadlines := make([]time.Duration, chains)
	var fn func(any)
	fn = func(arg any) {
		t := arg.(*time.Duration)
		*t += time.Microsecond * time.Duration(1+(*t)%7)
		s.AfterArg(*t-s.Now(), fn, t)
	}
	for i := range deadlines {
		deadlines[i] = time.Duration(i)
		s.AfterArg(time.Duration(i), fn, &deadlines[i])
	}
	m0 := readMem()
	t0 := time.Now()
	for s.EventsFired() < uint64(total) {
		s.Step()
	}
	wall := time.Since(t0).Seconds()
	m1 := readMem()
	return float64(s.EventsFired()) / wall, float64(m1.mallocs-m0.mallocs) / float64(s.EventsFired())
}

func kernelRigMedian(rec *recorder, name string, chains, total int) (eventsPerS, allocsPerEvent float64) {
	var eps, allocs []float64
	rec.do(0, "rig/"+name, "rigs", func(int) {
		for i := 0; i < rigRuns; i++ {
			e, a := kernelRig(chains, total)
			eps, allocs = append(eps, e), append(allocs, a)
		}
	})
	return median(eps), median(allocs)
}

// smallRigs are the rigs whose state stays cache-resident, as
// campaign4's worlds do.
func smallRigs(res *result, rec *recorder, div int) {
	n := 1_000_000 / div

	eps, allocs := kernelRigMedian(rec, "sim.kernel_events_per_s", 1024, 4*n)
	res.add("sim.kernel_events_per_s", eps)
	res.add("sim.kernel_allocs_per_event", allocs)

	// Arm and stop a timer against a standing population of 1,024.
	rig(res, rec, "sim.timer_stop_ns", func() (int, time.Duration) {
		s := sim.New(1)
		nop := func() {}
		for i := 0; i < 1024; i++ {
			s.After(time.Duration(i+1)*time.Millisecond, nop)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.After(time.Duration(1+i%1000)*time.Microsecond, nop).Stop()
		}
		return n, time.Since(t0)
	})

	rig(res, rec, "simdisk.read_ns", func() (int, time.Duration) {
		s := sim.New(1)
		cfg := simdisk.DefaultConfig()
		arr := simdisk.NewArray(s, s.NewRand("rig"), cfg, 2)
		done := func(bool) {}
		t0 := time.Now()
		for i := 0; i < n; {
			for b := 0; b < cfg.QueueCap && i < n; b, i = b+1, i+1 {
				arr.Read(i, done)
			}
			s.Run()
		}
		return n, time.Since(t0)
	})

	rig(res, rec, "metrics.emit_ns", func() (int, time.Duration) {
		log := &metrics.Log{}
		src := metrics.InternSource("pressbench/rig")
		t0 := time.Now()
		for i := 0; i < n; i++ {
			log.EmitInt(time.Duration(i), src, metrics.KDetect, i&3, "rig %d", int64(i))
		}
		return n, time.Since(t0)
	})

	rig(res, rec, "metrics.series_add_ns", func() (int, time.Duration) {
		ser := metrics.NewSeries(time.Second)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ser.Add(time.Duration(i)*time.Millisecond, 1)
		}
		return n, time.Since(t0)
	})

	rig(res, rec, "trace.sample_ns", func() (int, time.Duration) {
		cat := trace.NewCatalog(6500, trace.DefaultSize, trace.DefaultAlpha)
		rng := rand.New(rand.NewSource(1))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			cat.Sample(rng)
		}
		return n, time.Since(t0)
	})

	// The load generator against a responder that always answers OK at
	// once: the client side of a request with no server behind it.
	rig(res, rec, "workload.request_ns", func() (int, time.Duration) {
		s := sim.New(1)
		net := simnet.New(s, simnet.DefaultConfig(), &metrics.Log{})
		var pool cnet.MsgPool[server.RespMsg]
		net.AddIface(0).Listen(server.PortHTTP, func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
				req := m.(*server.ReqMsg)
				resp := server.NewRespMsg(&pool)
				resp.ID, resp.OK = req.ID, true
				req.Release()
				c.TrySend(resp, 256) // small, so the responder's link never queues
			}}
		})
		const rate = 10000
		served := workload.NewRecorder()
		gen := workload.NewGenerator(s, net, 1000, workload.Config{
			Rate: rate, Targets: []cnet.NodeID{0},
			Catalog: trace.NewCatalog(6500, trace.DefaultSize, trace.DefaultAlpha),
		}, served)
		gen.Start()
		t0 := time.Now()
		// A quarter of the other rigs' count: a request is a dozen events.
		s.RunFor(time.Duration(n) * time.Second / (4 * rate))
		return int(served.Succeeded), time.Since(t0)
	})
}

// wideRigs are the rigs at scale256's occupancy and fan-out.
func wideRigs(res *result, rec *recorder, div int) {
	n := 1_000_000 / div

	chains := 65536
	if div > 1 {
		chains = 4096
	}
	eps, _ := kernelRigMedian(rec, "sim.kernel_events_per_s_64k", chains, 2*n)
	res.add("sim.kernel_events_per_s_64k", eps)

	const port = "rig"
	var msg cnet.Message = struct{}{} // boxing it allocates nothing
	bare := func(batch bool) (*sim.Sim, *simnet.Network) {
		s := sim.New(1)
		cfg := simnet.DefaultConfig()
		cfg.BatchDelivery = batch
		return s, simnet.New(s, cfg, &metrics.Log{})
	}

	rig(res, rec, "simnet.datagram_ns", func() (int, time.Duration) {
		s, net := bare(false)
		a, b := net.AddIface(0), net.AddIface(1)
		got := 0
		b.BindDatagram(port, func(cnet.NodeID, cnet.Message) { got++ })
		t0 := time.Now()
		for i := 0; i < n; {
			for k := 0; k < 256 && i < n; k, i = k+1, i+1 {
				a.Send(1, cnet.ClassIntra, port, msg, 64)
			}
			s.Run()
		}
		return got, time.Since(t0)
	})

	rig(res, rec, "simnet.stream_msg_ns", func() (int, time.Duration) {
		s, net := bare(false)
		a, b := net.AddIface(0), net.AddIface(1)
		got := 0
		b.Listen(port, func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(cnet.Conn, cnet.Message) { got++ }}
		})
		var conn cnet.Conn
		a.Dial(1, cnet.ClassIntra, port, cnet.StreamHandlers{}, func(c cnet.Conn, err error) { conn = c })
		s.Run()
		if conn == nil {
			res.fail(0, "simnet.stream_msg_ns: dial failed")
			return 1, 0
		}
		t0 := time.Now()
		for i := 0; i < n; {
			for k := 0; k < 256 && i < n; k, i = k+1, i+1 {
				conn.TrySend(msg, 256)
			}
			s.Run()
		}
		return got, time.Since(t0)
	})

	// One sender, a 64-member group: the two delivery paths.
	multicast := func(batch bool) func() (int, time.Duration) {
		return func() (int, time.Duration) {
			const members = 64
			s, net := bare(batch)
			src := net.AddIface(0)
			got := 0
			for i := 1; i <= members; i++ {
				m := net.AddIface(cnet.NodeID(i))
				m.JoinGroup(port)
				m.BindDatagram(port, func(cnet.NodeID, cnet.Message) { got++ })
			}
			t0 := time.Now()
			for i := 0; i < n/members; {
				for k := 0; k < 16 && i < n/members; k, i = k+1, i+1 {
					src.Multicast(port, port, msg, 64)
				}
				s.Run()
			}
			return got, time.Since(t0)
		}
	}
	rig(res, rec, "simnet.multicast_ns_per_rcpt", multicast(true))
	rig(res, rec, "simnet.multicast_ns_per_rcpt_unbatched", multicast(false))

	// A datagram into a process that charges 1 µs of CPU for it: the
	// machine layer's mailbox, charge and pump around simnet's hop.
	rig(res, rec, "machine.msg_ns", func() (int, time.Duration) {
		s, net := bare(false)
		log := &metrics.Log{}
		ma := machine.New(s, net, 0, nil, log)
		mb := machine.New(s, net, 1, nil, log)
		got := 0
		mb.AddProc("sink", func(env *machine.Env) {
			env.BindDatagram(port, func(cnet.NodeID, cnet.Message) {
				env.Charge(time.Microsecond)
				got++
			})
		})
		var from *machine.Env
		ma.AddProc("source", func(env *machine.Env) { from = env })
		t0 := time.Now()
		for i := 0; i < n; {
			for k := 0; k < 256 && i < n; k, i = k+1, i+1 {
				from.Send(1, cnet.ClassIntra, port, msg, 64)
			}
			s.Run()
		}
		return got, time.Since(t0)
	})
}

// liveRTT is livenet alone: two bare Envs, and per operation one dial,
// one request, one reply and a close.
func liveRTT(res *result, rec *recorder, trips int) {
	var us []float64
	rec.do(0, "rig/livenet.rtt_us", "rigs", func(int) {
		for r := 0; r < rigRuns; r++ {
			w := livenet.NewWorld(1)
			srv := w.AddNode(0).Spawn("echo", func(env cnet.Env) {
				env.Listen(server.PortHTTP, func(cnet.Conn) cnet.StreamHandlers {
					return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
						c.TrySend(&server.RespMsg{ID: m.(*server.ReqMsg).ID, OK: true}, 256)
					}}
				})
			})
			var wg sync.WaitGroup
			wg.Add(1)
			var took time.Duration
			cli := w.AddNode(1).Spawn("client", func(env cnet.Env) {
				left := trips
				t0 := time.Now()
				var next func()
				next = func() {
					if left == 0 {
						took = time.Since(t0)
						wg.Done()
						return
					}
					left--
					h := cnet.StreamHandlers{OnMessage: func(c cnet.Conn, _ cnet.Message) {
						c.Close()
						next()
					}}
					env.Dial(0, cnet.ClassClient, server.PortHTTP, h, func(c cnet.Conn, err error) {
						if err != nil {
							// The listener registers asynchronously; an
							// early refusal is retried, not counted.
							left++
							env.Clock().AfterFunc(time.Millisecond, next)
							return
						}
						c.TrySend(&server.ReqMsg{ID: uint64(left)}, 256)
					})
				}
				next()
			})
			wg.Wait()
			cli.Kill()
			srv.Kill()
			us = append(us, float64(took.Microseconds())/float64(trips))
		}
	})
	res.add("livenet.rtt_us", median(us))
}
