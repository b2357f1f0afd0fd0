// Package livenet runs the same protocol components that the simulator
// hosts — the PRESS server, the membership daemon, the front-end — on
// real goroutines, real loopback TCP/UDP sockets and wall-clock time. It
// implements cnet.Env, so no component code changes. Both kinds of socket
// carry the snapshot engine's message encoding (wire.go): streams in
// length-prefixed frames, datagrams behind the sender's ID.
//
// This is the demonstration runtime (cmd/pressd): you can watch an actual
// cluster of sockets detect a killed process, reconfigure, and reintegrate
// it. The availability experiments stay on the simulator, where time is
// virtual and every run is deterministic.
//
// Process model: a Node is a machine; each Proc spawned on it gets its
// own task queue and run token (the "main thread": one task at a time, in
// order), its own sockets, and its own incarnation counter. A goroutine
// that brings work to an idle process runs it there and then, as
// machine.Proc.postCall does in the simulator; no goroutine waits for
// work. Kill closes the sockets abortively (RST), so peers observe
// exactly the app-crash semantics the simulator models.
package livenet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
)

type portKey struct {
	node cnet.NodeID
	port string
}

// World is a registry of live nodes sharing one clock and event log.
type World struct {
	clk  *clock.Real
	log  *metrics.Log
	seed int64

	mu       sync.Mutex
	tcpAddrs map[portKey]string
	udpAddrs map[portKey]*net.UDPAddr
	groups   map[string]map[cnet.NodeID]bool
	nodes    map[cnet.NodeID]*Node
	// unsendable holds the datagram types (reflect.Type) already reported as
	// impossible to encode: each is logged once, not once per heartbeat.
	unsendable sync.Map
}

// NewWorld creates an empty live world.
func NewWorld(seed int64) *World {
	return &World{
		clk:      clock.NewReal(),
		log:      &metrics.Log{},
		seed:     seed,
		tcpAddrs: make(map[portKey]string),
		udpAddrs: make(map[portKey]*net.UDPAddr),
		groups:   make(map[string]map[cnet.NodeID]bool),
		nodes:    make(map[cnet.NodeID]*Node),
	}
}

// Log returns the shared event log.
func (w *World) Log() *metrics.Log { return w.log }

// AddNode registers a machine.
func (w *World) AddNode(id cnet.NodeID) *Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.nodes[id]; dup {
		panic(fmt.Sprintf("livenet: duplicate node %d", id))
	}
	n := &Node{w: w, id: id, procs: make(map[string]*Proc)}
	w.nodes[id] = n
	return n
}

// Node is one live machine.
type Node struct {
	w     *World
	id    cnet.NodeID
	mu    sync.Mutex
	procs map[string]*Proc
}

// Spawn starts a process. start is its first task, run on a goroutine of
// its own: Spawn holds the node's lock, which start may need.
func (n *Node) Spawn(name string, start func(env cnet.Env)) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.procs[name]; dup {
		panic("livenet: duplicate proc " + name)
	}
	p := &Proc{node: n, name: name, start: start}
	n.procs[name] = p
	p.boot()
	return p
}

// Proc returns the named process, or nil.
func (n *Node) Proc(name string) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.procs[name]
}

// Proc is one live process (component instance + task queue).
type Proc struct {
	node  *Node
	name  string
	start func(env cnet.Env)
	mu    sync.Mutex
	env   *Env
	inc   uint64
}

func (p *Proc) boot() {
	p.mu.Lock()
	p.inc++
	e := &Env{
		p:    p,
		inc:  p.inc,
		rand: rand.New(rand.NewSource(p.node.w.seed ^ int64(p.node.id)<<20 ^ int64(p.inc))),
	}
	p.env = e
	p.mu.Unlock()
	// Nothing reaches the process before start binds its sockets, so start
	// is its first task, run by a goroutine of its own: not by Spawn's,
	// which holds the node's lock.
	go e.post(func() { p.start(e) })
}

// Kill stops the process abortively: sockets RST, timers die.
func (p *Proc) Kill() {
	p.mu.Lock()
	e := p.env
	p.env = nil
	p.mu.Unlock()
	if e != nil {
		e.shutdown()
	}
}

// Start boots a killed process afresh.
func (p *Proc) Start() {
	p.mu.Lock()
	dead := p.env == nil
	p.mu.Unlock()
	if dead {
		p.boot()
	}
}

// Alive reports whether the process is running.
func (p *Proc) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.env != nil
}

// Env implements cnet.Env on real sockets.
type Env struct {
	p    *Proc
	inc  uint64
	rand *rand.Rand

	qmu     sync.Mutex
	queue   []task // queue[head:] is waiting; the slots before head are spent
	head    int
	running bool // the run token: some goroutine is in drain's loop
	stalled bool
	dead    bool

	resMu     sync.Mutex
	closerSeq uint64
	closers   map[uint64]func()
	ownedKeys []portKey
	udp       *net.UDPConn // the one socket Send writes from, opened on first use
}

var _ cnet.Env = (*Env)(nil)

// task is one unit of the process's work: a callback (a timer,
// a datagram, a dial result), or, with fn nil, the next event of a stream
// connection, which needs no closure to say what it is — the message to
// hand to OnMessage, or with msg nil too the cause to hand to OnClose.
type task struct {
	fn    func()
	conn  *tcpConn
	msg   cnet.Message
	cause error
}

func (t task) run() {
	switch {
	case t.fn != nil:
		t.fn()
	case t.msg != nil:
		if h := t.conn.h.OnMessage; h != nil {
			h(t.conn, t.msg)
		}
	default:
		if h := t.conn.h.OnClose; h != nil {
			h(t.conn, t.cause)
		}
	}
}

// drain runs the queue on the calling goroutine, in order, until it is
// empty or the process stalls or dies — unless another goroutine holds
// the run token, and then that one runs it. qmu is held on entry and
// released on return; it is not held while a task runs, so a task may
// post, stall, resume or kill.
func (e *Env) drain() {
	if !e.running {
		e.running = true
		for !e.dead && !e.stalled && e.head < len(e.queue) {
			t := e.take()
			e.qmu.Unlock()
			t.run()
			e.qmu.Lock()
		}
		e.running = false
	}
	e.qmu.Unlock()
}

// take removes the task at the head of a non-empty queue; qmu is held.
func (e *Env) take() task {
	t := e.queue[e.head]
	e.queue[e.head] = task{}
	e.head++
	if e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
	}
	return t
}

func (e *Env) post(fn func()) { e.enqueue(task{fn: fn}) }

// enqueue appends to the queue and, if the process is idle, runs it on
// the calling goroutine; a dead process takes no more work. The queue is
// a slice consumed from head, so the usual case — the work is run as it
// comes and the queue drains — reuses one backing array for good. Under a
// standing backlog the spent prefix is reclaimed once it is at least half
// the slice, which keeps both the copying and the memory proportional to
// what is actually waiting.
func (e *Env) enqueue(t task) {
	e.qmu.Lock()
	if !e.dead {
		if len(e.queue) == cap(e.queue) && 2*e.head >= len(e.queue) {
			n := copy(e.queue, e.queue[e.head:])
			clear(e.queue[n:])
			e.queue, e.head = e.queue[:n], 0
		}
		e.queue = append(e.queue, t)
	}
	e.drain()
}

func (e *Env) alive() bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return !e.dead
}

// shutdown ends the incarnation: a task that is running finishes, no
// queued one starts.
func (e *Env) shutdown() {
	e.qmu.Lock()
	e.dead = true
	e.qmu.Unlock()
	e.resMu.Lock()
	closers := e.closers
	e.closers = nil
	keys := e.ownedKeys
	e.ownedKeys = nil
	if e.udp != nil {
		e.udp.Close()
	}
	e.resMu.Unlock()
	for _, c := range closers {
		c()
	}
	w := e.p.node.w
	w.mu.Lock()
	for _, k := range keys {
		delete(w.tcpAddrs, k)
		delete(w.udpAddrs, k)
	}
	w.mu.Unlock()
}

// addCloser registers a shutdown hook and returns a handle for
// dropCloser, so finished connections do not accumulate for the lifetime
// of a long-running process.
func (e *Env) addCloser(fn func()) uint64 {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if e.closers == nil {
		e.closers = make(map[uint64]func())
	}
	e.closerSeq++
	e.closers[e.closerSeq] = fn
	return e.closerSeq
}

func (e *Env) dropCloser(id uint64) {
	e.resMu.Lock()
	delete(e.closers, id)
	e.resMu.Unlock()
}

// Event kinds the transport itself emits into the world log (source
// "livenet"): things a component cannot see because the transport
// absorbed them.
var (
	// KSendDrop: the wire codec has no name for some type of datagram, so
	// none of them is ever sent. Emitted once per type.
	KSendDrop = metrics.InternKind("livenet.drop")
	// KWireFault: a stream was closed because what crossed it, or was
	// about to, is not the wire protocol.
	KWireFault = metrics.InternKind("livenet.wire")

	srcLivenet = metrics.InternSource("livenet")
)

func (e *Env) emit(kind metrics.KindID, detail string) {
	w := e.p.node.w
	w.log.EmitID(w.clk.Now(), srcLivenet, kind, int(e.p.node.id), detail)
}

// Local implements cnet.Env.
func (e *Env) Local() cnet.NodeID { return e.p.node.id }

// Rand implements cnet.Env.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Events implements cnet.Env.
func (e *Env) Events() *metrics.Log { return e.p.node.w.log }

// Charge implements cnet.Env (live CPU time is real; nothing to model).
func (e *Env) Charge(time.Duration) {}

// Stall implements cnet.Env.
func (e *Env) Stall() {
	e.qmu.Lock()
	e.stalled = true
	e.qmu.Unlock()
}

// Resume implements cnet.Env: the backlog runs on the caller's goroutine,
// or, if a task of this process is the caller, after it.
func (e *Env) Resume() {
	e.qmu.Lock()
	e.stalled = false
	e.drain()
}

// Clock implements cnet.Env: wall time, callbacks through the task
// queue, dead with the incarnation.
func (e *Env) Clock() clock.Clock { return liveClock{e} }

type liveClock struct{ e *Env }

func (lc liveClock) Now() time.Duration { return lc.e.p.node.w.clk.Now() }

func (lc liveClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return lc.e.AfterFor(d, cnet.TimerFunc(fn))
}

// AfterFor implements cnet.Env: a wall-clock timer that posts the owner's
// method to the process while the incarnation lives.
func (e *Env) AfterFor(d time.Duration, owner cnet.TimerOwner) clock.Timer {
	return time.AfterFunc(d, func() {
		if e.alive() {
			e.post(owner.OnTimer)
		}
	})
}

// Every adapts the generic rearm-at-end ticker: each tick is posted to
// the process and the rearm happens after the callback ran there, so the
// ticker dies with the incarnation like any other timer.
func (lc liveClock) Every(d time.Duration, fn func()) clock.Ticker {
	return clock.NewFuncTicker(lc, d, fn)
}

// --- datagrams ---------------------------------------------------------------

// BindDatagram implements cnet.Env over a loopback UDP socket.
func (e *Env) BindDatagram(port string, h func(from cnet.NodeID, m cnet.Message)) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	w := e.p.node.w
	key := portKey{e.p.node.id, port}
	w.mu.Lock()
	w.udpAddrs[key] = pc.LocalAddr().(*net.UDPAddr)
	w.mu.Unlock()
	e.resMu.Lock()
	e.ownedKeys = append(e.ownedKeys, key)
	e.resMu.Unlock()
	e.addCloser(func() { pc.Close() })
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			// Anyone on the host can write here. What is not a datagram of ours
			// is lost, and not logged: the log would be a stranger's to fill.
			from, m, err := parseDatagram(buf[:n])
			if err != nil {
				continue
			}
			if e.alive() {
				e.post(func() { h(from, m) })
			}
		}
	}()
}

// Send implements cnet.Env (datagram).
func (e *Env) Send(to cnet.NodeID, class cnet.Class, port string, m cnet.Message, size int) {
	w := e.p.node.w
	w.mu.Lock()
	addr := w.udpAddrs[portKey{to, port}]
	w.mu.Unlock()
	if addr == nil {
		return // nothing listening: UDP silently drops
	}
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	pkt, err := appendBody(appendSender((*buf)[:0], e.p.node.id), m)
	if err != nil {
		// Not a lost datagram but every datagram of this type, for good: a
		// type nobody had registered once kept gossip membership from ever
		// forming, in silence.
		if _, seen := w.unsendable.LoadOrStore(reflect.TypeOf(m), true); !seen {
			e.emit(KSendDrop, fmt.Sprintf("every %T datagram is dropped: %v", m, err))
		}
		return
	}
	*buf = pkt
	if conn := e.sendSocket(); conn != nil {
		conn.WriteToUDP(pkt, addr)
	}
}

// sendSocket is the incarnation's one unconnected loopback socket that
// every datagram leaves from, opened by the first Send and closed by
// shutdown; a dead process has none and opens none.
func (e *Env) sendSocket() *net.UDPConn {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if e.udp == nil && e.alive() {
		e.udp, _ = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	return e.udp
}

// JoinGroup implements cnet.Env.
func (e *Env) JoinGroup(group string) {
	w := e.p.node.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.groups[group] == nil {
		w.groups[group] = make(map[cnet.NodeID]bool)
	}
	w.groups[group][e.p.node.id] = true
}

// Multicast implements cnet.Env by fanning out over the group registry
// (loopback "IP multicast").
func (e *Env) Multicast(group, port string, m cnet.Message, size int) {
	w := e.p.node.w
	w.mu.Lock()
	var members []cnet.NodeID
	for id := range w.groups[group] {
		if id != e.p.node.id {
			members = append(members, id)
		}
	}
	w.mu.Unlock()
	// Fan out in node order, not map order, so the delivery sequence is
	// reproducible across runs.
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, id := range members {
		e.Send(id, cnet.ClassIntra, port, m, size)
	}
}

// --- streams -----------------------------------------------------------------

type tcpConn struct {
	env *Env
	c   *net.TCPConn
	h   cnet.StreamHandlers
	// peer is a cnet.NodeID: known from the start on a dialed connection,
	// cnet.None on an accepted one until the dialer's preamble arrives,
	// which is before its first message.
	peer atomic.Int64
	// word is the owner's (cnet.Env.SetConnWord); only the owner's tasks
	// touch it.
	word uint64

	wmu   sync.Mutex
	greet bool // a dialer still owes its preamble; it goes out with the first frame

	// broken is set when this side closed the connection over a wire
	// fault rather than at its owner's request, so the owner is still
	// owed an OnClose.
	broken   atomic.Bool
	closed   sync.Once
	closerID uint64
}

var _ cnet.Conn = (*tcpConn)(nil)

func (e *Env) newConn(c net.Conn, peer cnet.NodeID, h cnet.StreamHandlers) *tcpConn {
	t := &tcpConn{env: e, c: c.(*net.TCPConn), h: h}
	t.peer.Store(int64(peer))
	t.closerID = e.addCloser(t.abort)
	return t
}

func (t *tcpConn) Peer() cnet.NodeID { return cnet.NodeID(t.peer.Load()) }

// TrySend implements cnet.Conn: one frame, one write. Live TCP buffers,
// so it never reports a full window. A message the wire codec cannot
// carry is a fault of this process, not a loss: the connection closes
// and both ends hear of it.
func (t *tcpConn) TrySend(m cnet.Message, size int) bool {
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	t.wmu.Lock()
	defer t.wmu.Unlock()
	frame := (*buf)[:0]
	if t.greet {
		frame = appendPreamble(frame, t.env.p.node.id)
	}
	frame, err := appendFrame(frame, m)
	if cap(frame) <= 64<<10 {
		*buf = frame // keep what it grew to, unless a huge HelloMsg grew it
	}
	if err != nil {
		t.env.emit(KWireFault, err.Error())
		t.broken.Store(true)
		t.Close()
		return true
	}
	t.greet = false
	// A write to a dead connection discards the message, as the contract
	// says; the read loop is what reports the death.
	_, _ = t.c.Write(frame)
	return true
}

// frameBufs and readers recycle what a connection needs only while it
// sends one message or lives one short life: connections come and go per
// request, so a buffer of their own each would be garbage per request.
var (
	frameBufs = sync.Pool{New: func() any { return new([]byte) }}
	readers   = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
)

// Close implements cnet.Conn (orderly FIN). As on the simulator, the
// side that closes is not told so: OnClose is the peer's news.
func (t *tcpConn) Close() { t.release(false) }

// abort closes with RST semantics; it is the connection's shutdown hook.
func (t *tcpConn) abort() { t.release(true) }

// release gives back everything the connection holds, once: the socket,
// and the shutdown hook that would otherwise sit in Env.closers for the
// life of the process. Every way a connection ends comes through here —
// Close, Proc.Kill through the hook, and the read loop when the peer's
// FIN or RST arrives — and on the local paths closing the socket is
// what ends the read goroutine.
func (t *tcpConn) release(reset bool) {
	t.closed.Do(func() {
		if reset {
			t.c.SetLinger(0)
		}
		t.c.Close()
		t.env.dropCloser(t.closerID)
	})
}

// readLoop delivers the peer's messages until the stream ends, then
// releases the connection: a socket whose peer is gone has no further
// use, and leaving it open cost one descriptor per request.
func (t *tcpConn) readLoop() {
	err := t.deliver()
	t.Close()
	if errors.Is(err, net.ErrClosed) && !t.broken.Load() {
		return // closed or killed on this side
	}
	if errors.Is(err, errWire) {
		t.env.emit(KWireFault, err.Error())
	}
	t.env.enqueue(task{conn: t, cause: closeCause(err)})
}

// deliver posts every message the peer sends to the owner and returns the
// error that ended the stream.
func (t *tcpConn) deliver() error {
	br := readers.Get().(*bufio.Reader)
	br.Reset(t.c)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	if t.Peer() == cnet.None {
		from, err := readPreamble(br)
		if err != nil {
			return err
		}
		t.peer.Store(int64(from))
	}
	for {
		m, err := readFrame(br)
		if err != nil {
			return err
		}
		t.env.enqueue(task{conn: t, msg: m})
	}
}

// closeCause maps the error that ended a stream onto the transport
// errors components know: a reset if the peer's kernel said so (its
// process was killed), an orderly close otherwise.
func closeCause(err error) error {
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return cnet.ErrReset
	}
	return cnet.ErrClosed
}

// dialCause does the same for a failed connect: refused when the machine
// answered that nothing listens, timed out for everything else.
func dialCause(err error) error {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return cnet.ErrRefused
	}
	return cnet.ErrTimeout
}

// Listen implements cnet.Env over a loopback TCP listener.
func (e *Env) Listen(port string, accept func(c cnet.Conn) cnet.StreamHandlers) {
	ln, err := listenCfg.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	w := e.p.node.w
	key := portKey{e.p.node.id, port}
	w.mu.Lock()
	w.tcpAddrs[key] = ln.Addr().String()
	w.mu.Unlock()
	e.resMu.Lock()
	e.ownedKeys = append(e.ownedKeys, key)
	e.resMu.Unlock()
	e.addCloser(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			tc := e.newConn(c, cnet.None, cnet.StreamHandlers{})
			if !e.alive() {
				tc.abort()
				return
			}
			e.post(func() {
				tc.h = accept(tc)
				go tc.readLoop()
			})
		}
	}()
}

// SetConnWord implements cnet.Env.
func (e *Env) SetConnWord(c cnet.Conn, w uint64) {
	if t, ok := c.(*tcpConn); ok {
		t.word = w
	}
}

// ConnWord implements cnet.Env.
func (e *Env) ConnWord(c cnet.Conn) uint64 {
	if t, ok := c.(*tcpConn); ok {
		return t.word
	}
	return 0
}

// Keep-alive probing is off at both ends of every stream. On loopback a
// dead peer process is a FIN or an RST at once, a hung one is what the
// protocols' own heartbeats are for, and leaving the default on costs
// four setsockopt calls per connection end on connections that live for
// one request.
var (
	listenCfg = net.ListenConfig{KeepAlive: -1}
	dialer    = net.Dialer{Timeout: 3 * time.Second, KeepAlive: -1}
)

// DialFor implements cnet.Env. The handlers are asked for here, in the
// task that owns the record.
func (e *Env) DialFor(to cnet.NodeID, class cnet.Class, port string, owner cnet.DialOwner) {
	h := owner.DialHandlers()
	go func() {
		c, err := e.connect(to, port)
		if err != nil {
			e.post(func() { owner.DialResult(nil, err) })
			return
		}
		tc := e.newConn(c, to, h)
		tc.greet = true
		if !e.alive() {
			tc.abort()
			return
		}
		e.post(func() { owner.DialResult(tc, nil) })
		tc.readLoop() // this goroutine has done its dialing; no need for a second
	}()
}

// Dial implements cnet.Env.
func (e *Env) Dial(to cnet.NodeID, class cnet.Class, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	e.DialFor(to, class, port, &cnet.DialFuncs{H: h, Result: result})
}

// connect opens the socket behind a Dial, or says in cnet's terms why not.
func (e *Env) connect(to cnet.NodeID, port string) (net.Conn, error) {
	w := e.p.node.w
	w.mu.Lock()
	addr := w.tcpAddrs[portKey{to, port}]
	w.mu.Unlock()
	if addr == "" {
		return nil, cnet.ErrRefused // nothing registered: the process is down
	}
	c, err := dialer.Dial("tcp", addr)
	if err != nil {
		return nil, dialCause(err)
	}
	return c, nil
}

// MemDisk is the live stand-in for the disk subsystem: reads complete
// after a fixed service time, the queue never fills. Good enough for
// demonstrations; the simulator owns disk-fault fidelity.
type MemDisk struct {
	Service time.Duration
}

// ReadFor implements server.DiskArray.
func (d MemDisk) ReadFor(key int, owner interface{ DiskDone(ok bool) }) bool {
	svc := d.Service
	if svc <= 0 {
		svc = 2 * time.Millisecond
	}
	time.AfterFunc(svc, func() { owner.DiskDone(true) })
	return true
}

// NotifySpace implements server.DiskArray (the queue never fills).
func (d MemDisk) NotifySpace(interface{ DiskSpace() }) {}

// Probe implements fme.Disk.
func (d MemDisk) Probe(timeout time.Duration, owner interface{ DiskProbe(healthy bool) }) {
	time.AfterFunc(time.Millisecond, func() { owner.DiskProbe(true) })
}
