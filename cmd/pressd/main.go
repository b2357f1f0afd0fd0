// Command pressd hosts a live PRESS mini-cluster on loopback TCP — the
// same protocol code the simulator runs for the paper's experiments, on
// real sockets and wall-clock time (internal/livenet).
//
// It starts N server nodes (PRESS + membership daemon + ping responder)
// behind an LVS-style front-end, drives a steady client load, and then
// follows a fault script: kill a server process, wait, restart it. Every
// detection/masking/membership event is printed as it happens.
//
// Usage:
//
//	pressd [-nodes 3] [-hb 500ms] [-rate 20] [-duration 30s] [-kill 1]
//	       [-protocol faithful|scalable]
//
// -protocol scalable runs the large-cluster protocol suite on the same
// live stack: gossip membership (bounded-fanout dissemination), the
// hash-partitioned cache directory, and document-hash routing at the
// front end.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/harness"
	"press/internal/livenet"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/trace"
)

func main() {
	nNodes := flag.Int("nodes", 3, "server nodes")
	hb := flag.Duration("hb", 500*time.Millisecond, "heartbeat/probe period")
	rate := flag.Float64("rate", 20, "client requests per second")
	duration := flag.Duration("duration", 30*time.Second, "total run time")
	kill := flag.Int("kill", 1, "node whose PRESS process is killed mid-run (-1: none)")
	seed := flag.Int64("seed", 1, "world seed (fixed by default so runs are reproducible)")
	protocol := flag.String("protocol", "faithful", "protocol suite: faithful (paper) or scalable (gossip membership + sharded directory)")
	flag.Parse()

	suite, err := harness.ParseProtocolSuite(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *nNodes < 1 {
		fmt.Fprintf(os.Stderr, "-nodes %d: the cluster needs at least one server node\n", *nNodes)
		os.Exit(2)
	}
	scalable := suite == harness.Scalable

	fmt.Printf("pressd: seed %d, %s protocols\n", *seed, suite)
	w := livenet.NewWorld(*seed)
	cat := trace.NewCatalog(500, 27*1024, 0.8)

	var ids []cnet.NodeID
	for i := 0; i < *nNodes; i++ {
		ids = append(ids, cnet.NodeID(i))
	}
	// Every process reports in once it is constructed, which is when its
	// listeners and datagram ports are registered: the client starts after
	// that, so its first request cannot beat the front-end's Listen.
	up := make(chan struct{}, 3**nNodes+1)
	var nodes []*livenet.Node
	for i := range ids {
		n := w.AddNode(ids[i])
		nodes = append(nodes, n)
		pub := &membership.Published{}
		n.Spawn("membd", func(env cnet.Env) {
			membership.NewDaemon(membership.Config{
				Self: ids[i], HBPeriod: *hb, HBMiss: 3,
				Gossip: scalable, Peers: ids,
			}, env, pub)
			up <- struct{}{}
		})
		n.Spawn("icmp", func(env cnet.Env) {
			frontend.NewPingResponder(env)
			up <- struct{}{}
		})
		n.Spawn("press", func(env cnet.Env) {
			server.New(server.Config{
				Self: ids[i], Nodes: ids, Cooperative: true, Sharded: scalable,
				HeartbeatPeriod: *hb, JoinTimeout: time.Second,
				Catalog: cat, CacheBytes: cat.TotalBytes(),
			}, env, livenet.MemDisk{Service: time.Millisecond},
				membership.NewClient(env, pub, *hb/2))
			up <- struct{}{}
		})
	}

	const feID = cnet.NodeID(90)
	fe := w.AddNode(feID)
	fe.Spawn("frontend", func(env cnet.Env) {
		frontend.New(frontend.Config{
			Self: feID, Backends: ids, ShardRoute: scalable,
			PingPeriod: *hb, PingMiss: 3,
			ConnMonitor: true, ConnPeriod: *hb, ConnDeadline: 2 * *hb,
		}, env)
		up <- struct{}{}
	})
	for i := 0; i < cap(up); i++ {
		<-up
	}

	ok := make(chan int, 1)
	fail := make(chan int, 1)
	ok <- 0
	fail <- 0
	bump := func(ch chan int) { v := <-ch; ch <- v + 1 }

	client := w.AddNode(1000)
	client.Spawn("driver", func(env cnet.Env) {
		rng := env.Rand()
		period := time.Duration(float64(time.Second) / *rate)
		var loop func()
		loop = func() {
			h := cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) {
					if r, isResp := m.(*server.RespMsg); isResp {
						if r.OK {
							bump(ok)
						} else {
							bump(fail)
						}
						c.Close()
					}
				},
			}
			env.Dial(feID, cnet.ClassClient, server.PortHTTP, h, func(c cnet.Conn, err error) {
				if err != nil {
					bump(fail)
					return
				}
				c.TrySend(&server.ReqMsg{Doc: cat.Sample(rng)}, 256)
			})
			env.Clock().AfterFunc(period, loop)
		}
		loop()
	})

	// Stream interesting events as they arrive: the cursor picks up where
	// it left off on each poll instead of re-snapshotting the whole log.
	go func() {
		cur := w.Log().Cursor()
		for {
			for {
				e, ok := cur.Next()
				if !ok {
					break
				}
				switch e.Kind {
				case metrics.KDetect, metrics.KExclude, metrics.KInclude,
					metrics.KFrontendMask, metrics.KFrontendUnmask,
					metrics.KMemberJoin, metrics.KMemberLeave, metrics.KServerUp,
					livenet.KSendDrop, livenet.KWireFault:
					fmt.Println(e)
				}
			}
			time.Sleep(200 * time.Millisecond)
		}
	}()

	fmt.Printf("pressd: %d nodes + front-end live on loopback; %v run\n", *nNodes, *duration)
	third := *duration / 3
	time.Sleep(third)
	if *kill >= 0 && *kill < len(nodes) {
		fmt.Printf("--- killing PRESS on node %d ---\n", *kill)
		nodes[*kill].Proc("press").Kill()
		time.Sleep(third)
		fmt.Printf("--- restarting PRESS on node %d ---\n", *kill)
		nodes[*kill].Proc("press").Start()
	} else {
		time.Sleep(third)
	}
	time.Sleep(third)

	o, f := <-ok, <-fail
	if o+f == 0 {
		fmt.Println("\nserved 0 requests: none completed")
		return
	}
	fmt.Printf("\nserved %d requests, %d failed (availability %.4f)\n",
		o, f, float64(o)/float64(o+f))
}
