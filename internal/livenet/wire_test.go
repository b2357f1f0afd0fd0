package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/snapio"
	"press/internal/trace"
)

// Pools for the sending side of the wire tests: a record drawn from one
// carries a home pointer, which must not survive the wire.
var (
	reqPool      cnet.MsgPool[server.ReqMsg]
	respPool     cnet.MsgPool[server.RespMsg]
	fwdPool      cnet.MsgPool[server.FwdMsg]
	fwdReplyPool cnet.MsgPool[server.FwdReplyMsg]
	announcePool cnet.MsgPool[server.AnnounceMsg]
	hbPool       cnet.MsgPool[server.HBMsg]
	mhbPool      cnet.MsgPool[membership.MHeartbeat]
	gossipPool   cnet.MsgPool[membership.MGossip]
)

// wireSample is one value of a registered message, every field set,
// slices included: what must arrive, and (for the pooled types) a
// pool-drawn record to send instead of the literal.
type wireSample struct {
	want cnet.Message
	send func() cnet.Message
}

func (s wireSample) outgoing() cnet.Message {
	if s.send != nil {
		return s.send()
	}
	return s.want
}

// wireSamples has one entry per name wireCodec registers. The stream test
// and the datagram test both enumerate the codec's names and fail on one
// without an entry: there is no second list of what a socket carries.
var wireSamples = map[string]wireSample{
	"press.Req": {&server.ReqMsg{ID: 1<<40 + 7, Doc: 311, Probe: true}, func() cnet.Message {
		m := server.NewReqMsg(&reqPool)
		m.ID, m.Doc, m.Probe = 1<<40+7, 311, true
		return m
	}},
	"press.Resp": {&server.RespMsg{ID: 9, OK: true, Probe: true, View: []cnet.NodeID{0, 2, 90}}, func() cnet.Message {
		m := server.NewRespMsg(&respPool)
		m.ID, m.OK, m.Probe, m.View = 9, true, true, []cnet.NodeID{0, 2, 90}
		return m
	}},
	"press.Hello": {want: server.HelloMsg{From: 2, CacheDocs: []trace.DocID{5, 0, 499}}},
	"press.Fwd": {&server.FwdMsg{ID: 12, Doc: 77, Load: 3, Origin: cnet.None}, func() cnet.Message {
		m := server.NewFwdMsg(&fwdPool)
		m.ID, m.Doc, m.Load, m.Origin = 12, 77, 3, cnet.None
		return m
	}},
	"press.FwdReply": {&server.FwdReplyMsg{ID: 12, Doc: 77, OK: true, Load: 4}, func() cnet.Message {
		m := server.NewFwdReplyMsg(&fwdReplyPool)
		m.ID, m.Doc, m.OK, m.Load = 12, 77, true, 4
		return m
	}},
	"press.Announce": {&server.AnnounceMsg{From: 1, Doc: 8, Cached: true, Load: 2}, func() cnet.Message {
		m := server.NewAnnounceMsg(&announcePool)
		m.From, m.Doc, m.Cached, m.Load = 1, 8, true, 2
		return m
	}},
	"press.HB": {&server.HBMsg{From: 1, Load: 6}, func() cnet.Message {
		m := server.NewHBMsg(&hbPool)
		m.From, m.Load = 1, 6
		return m
	}},
	"press.Exclude":  {want: server.ExcludeMsg{From: 0, Dead: 2}},
	"press.JoinReq":  {want: server.JoinReqMsg{From: 1}},
	"press.JoinResp": {want: server.JoinRespMsg{From: 0, View: []cnet.NodeID{0, 1}}},

	"memb.Heartbeat": {&membership.MHeartbeat{From: 2, Ver: 9}, func() cnet.Message {
		m := membership.NewMHeartbeat(&mhbPool)
		m.From, m.Ver = 2, 9
		return m
	}},
	"memb.Gossip": {&membership.MGossip{From: 1, Nodes: []cnet.NodeID{0, 1, 2}, Counts: []uint64{4, 5, 1 << 40}}, func() cnet.Message {
		m := membership.NewMGossip(&gossipPool)
		m.From, m.Nodes, m.Counts = 1, append(m.Nodes, 0, 1, 2), append(m.Counts, 4, 5, 1<<40)
		return m
	}},
	"memb.JoinReq":   {want: membership.MJoinReq{From: 2, Size: 1, MinID: 2, Members: []cnet.NodeID{2}}},
	"memb.JoinOffer": {want: membership.MJoinOffer{From: 0, Ver: 3, Members: []cnet.NodeID{0, 1}}},
	"memb.JoinAsk":   {want: membership.MJoinAsk{From: 2}},
	"memb.Prepare":   {want: membership.MPrepare{From: 0, Ver: 4, Members: []cnet.NodeID{0, 1, 2}, Subject: 2, Add: true}},
	"memb.Ack":       {want: membership.MAck{From: 1, Ver: 4}},
	"memb.Commit":    {want: membership.MCommit{From: 0, Ver: 4, Members: []cnet.NodeID{0, 1, 2}}},
	"memb.NodeDown":  {want: membership.MNodeDown{From: 1, Node: 2}},

	"fe.Ping": {want: frontend.PingMsg{From: 90, Seq: 11}},
	"fe.Pong": {want: frontend.PongMsg{From: 1, Seq: 11}},
}

// snapshotEncoding is the message as the snapshot engine writes it into a
// mailbox, a connection buffer or an in-flight packet: a codec built the
// way internal/harness builds its own.
func snapshotEncoding(m cnet.Message) []byte {
	c := snapio.NewMsgCodec()
	server.RegisterMessages(c)
	frontend.RegisterMessages(c)
	membership.RegisterMessages(c)
	var e snapio.Encoder
	c.Encode(&e, m)
	return e.Bytes()
}

// listenRaw registers a plain TCP listener as (node, port) in w, so a
// livenet dialer talks to a socket the test reads byte by byte.
func listenRaw(t *testing.T, w *World, node cnet.NodeID, port string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	w.mu.Lock()
	w.tcpAddrs[portKey{node, port}] = ln.Addr().String()
	w.mu.Unlock()
	return ln
}

func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func TestEveryStreamMessageCrossesTheWire(t *testing.T) {
	names := wireCodec.Names()
	if len(names) != len(wireSamples) {
		t.Errorf("the codec registers %d names, the sample table has %d", len(names), len(wireSamples))
	}

	w := NewWorld(1)
	type arrival struct {
		peer cnet.NodeID
		m    cnet.Message
	}
	arrived := make(chan arrival, 1)
	up := make(chan *Env, 1)
	srv := w.AddNode(0).Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
				arrived <- arrival{c.Peer(), m}
				c.Close()
			}}
		})
		up <- env.(*Env)
	})
	<-up
	cli := w.AddNode(7).Spawn("cli", func(env cnet.Env) { up <- env.(*Env) })
	cliEnv := <-up
	defer srv.Kill()
	defer cli.Kill()
	raw := listenRaw(t, w, 50, "press")

	send := func(to cnet.NodeID, m cnet.Message) {
		cliEnv.post(func() {
			cliEnv.Dial(to, cnet.ClassIntra, "press", cnet.StreamHandlers{}, func(c cnet.Conn, err error) {
				if err != nil {
					t.Errorf("dial node %d: %v", to, err)
					return
				}
				c.TrySend(m, 64)
				if to == 50 {
					c.Close()
				}
			})
		})
	}

	for _, name := range names {
		s, ok := wireSamples[name]
		if !ok {
			t.Errorf("%s is registered with the codec and has no sample in wireSamples", name)
			continue
		}

		// Delivered whole, by a peer that knows who is talking, with no pool
		// attached: releasing it changes nothing.
		send(0, s.outgoing())
		got := recv(t, arrived, name+" to arrive")
		if got.peer != 7 {
			t.Errorf("%s: Peer() = %d at the first message, want the dialer, 7", name, got.peer)
		}
		if !reflect.DeepEqual(got.m, s.want) {
			t.Errorf("%s: arrived as %#v, want %#v", name, got.m, s.want)
		}
		if r, ok := got.m.(interface{ Release() }); ok {
			r.Release()
			if !reflect.DeepEqual(got.m, s.want) {
				t.Errorf("%s: Release on the received copy changed it to %#v: it has a home pool", name, got.m)
			}
		}

		// On the socket: the preamble once, then a length and the snapshot
		// engine's bytes, nothing else.
		send(50, s.outgoing())
		c, err := raw.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		stream, err := io.ReadAll(c)
		c.Close()
		if err != nil {
			t.Fatalf("%s: reading the raw stream: %v", name, err)
		}
		body := snapshotEncoding(s.want)
		wantStream := appendPreamble(nil, 7)
		wantStream = binary.BigEndian.AppendUint32(wantStream, uint32(len(body)))
		wantStream = append(wantStream, body...)
		if !bytes.Equal(stream, wantStream) {
			t.Errorf("%s: on the wire % x, want preamble, length and the snapshot encoding % x", name, stream, wantStream)
		}
	}
	for name := range wireSamples {
		if _, err := decodeBody(snapshotEncoding(wireSamples[name].want)); err != nil {
			t.Errorf("sample %s is not a registered message: %v", name, err)
		}
	}
}

// hostileStream is what a misbehaving dialer writes before half-closing.
type hostileStream struct {
	name   string
	stream []byte
	// fault: the stream breaks the protocol (as opposed to merely ending
	// early), so the world log must say why the connection was closed.
	fault string
}

func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func hostileStreams() []hostileStream {
	hello := appendPreamble(nil, 3)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	req := snapshotEncoding(&server.ReqMsg{ID: 1, Doc: 2})
	var unknown, nameless, greedy snapio.Encoder
	unknown.Str("press.Nope")
	unknown.U64(1)
	nameless.Str("")
	// A hello from node 3 claiming 16M cache entries and carrying none: 17
	// well-framed bytes that once had the decoder reserve 128 MB for them.
	greedy.Str("press.Hello")
	greedy.I64(3)
	greedy.Int(1 << 24)
	return []hostileStream{
		{"another protocol", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), "bad preamble"},
		{"a later wire version", cat([]byte{'P', 'R', 'S', wireVersion + 1, 0, 0, 0, 3}, frameOf(req)), "wire version"},
		{"a negative sender", cat([]byte{'P', 'R', 'S', wireVersion, 0xff, 0xff, 0xff, 0xff}, frameOf(req)), "names node -1"},
		{"half a preamble", hello[:5], ""},
		{"a 4 GiB frame", cat(hello, []byte{0xff, 0xff, 0xff, 0xff}), "over the"},
		{"a frame one byte over the bound", cat(hello, binary.BigEndian.AppendUint32(nil, maxFrame+1)), "over the"},
		{"half a header", cat(hello, []byte{0, 0}), ""},
		{"a truncated frame", cat(hello, frameOf(req)[:headerLen+3]), ""},
		{"a large frame that never comes", cat(hello, binary.BigEndian.AppendUint32(nil, maxFrame), req), ""},
		{"an unknown message name", cat(hello, frameOf(unknown.Bytes())), `unknown message type "press.Nope"`},
		{"no message at all", cat(hello, frameOf(nameless.Bytes())), "empty message"},
		{"a count larger than the frame that carries it", cat(hello, frameOf(greedy.Bytes())), "exceeds the 0 bytes left"},
		{"an empty frame", cat(hello, frameOf(nil)), "corrupt stream"},
		{"trailing bytes in a frame", cat(hello, frameOf(append(append([]byte(nil), req...), 0))), "bytes left over"},
		{"a message cut short inside its frame", cat(hello, frameOf(req[:len(req)-1])), "corrupt stream"},
		{"a good frame, then garbage", cat(hello, frameOf(req), []byte{0, 0, 0, 1, 0xff}), "corrupt stream"},
	}
}

func TestHostileStreamClosesTheConnection(t *testing.T) {
	w := NewWorld(1)
	closed := make(chan error, 1)
	served := make(chan struct{}, 4)
	up := make(chan struct{})
	srv := w.AddNode(0).Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) {
					c.TrySend(&server.RespMsg{ID: m.(*server.ReqMsg).ID, OK: true}, 128)
					served <- struct{}{}
				},
				OnClose: func(_ cnet.Conn, err error) { closed <- err },
			}
		})
		close(up)
	})
	defer srv.Kill()
	<-up
	w.mu.Lock()
	addr := w.tcpAddrs[portKey{0, "press"}]
	w.mu.Unlock()

	// talk writes stream as a dialer would and reads until the listener's
	// side closes the connection, or, when a reply of want bytes is due,
	// until that has arrived; only then does it close its own end (a cnet
	// peer has no half-close: its FIN ends the conversation both ways).
	talk := func(stream []byte, want int) (reply []byte) {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(stream); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if want > 0 {
			reply = make([]byte, want)
			if _, err := io.ReadFull(c, reply); err != nil {
				t.Fatalf("no reply: %v", err)
			}
			return reply
		}
		c.(*net.TCPConn).CloseWrite()
		reply, err = io.ReadAll(c)
		if err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("the connection was not closed: %v", err)
		}
		return reply
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cur := w.Log().Cursor()
	for _, h := range hostileStreams() {
		talk(h.stream, 0)
		if err := recv(t, closed, h.name+": OnClose"); !errors.Is(err, cnet.ErrClosed) {
			t.Errorf("%s: OnClose(%v), want cnet.ErrClosed", h.name, err)
		}
		var said []string
		for {
			e, ok := cur.Next()
			if !ok {
				break
			}
			if e.Kind == KWireFault && e.Source == srcLivenet && e.Node == 0 {
				said = append(said, e.Detail)
			}
		}
		switch {
		case h.fault == "" && len(said) != 0:
			t.Errorf("%s: an early end of stream was logged as a wire fault: %q", h.name, said)
		case h.fault != "" && (len(said) != 1 || !strings.Contains(said[0], h.fault)):
			t.Errorf("%s: wire faults logged %q, want one mentioning %q", h.name, said, h.fault)
		}

		// The listener is none the worse for it.
		for len(served) > 0 {
			<-served
		}
		good := append(appendPreamble(nil, 3), frameOf(snapshotEncoding(&server.ReqMsg{ID: 5}))...)
		want := frameOf(snapshotEncoding(&server.RespMsg{ID: 5, OK: true}))
		reply := talk(good, len(want))
		recv(t, served, h.name+": the next well-formed request")
		recv(t, closed, h.name+": the well-formed client's close")
		if !bytes.Equal(reply, want) {
			t.Errorf("after %s a well-formed request was answered % x, want % x", h.name, reply, want)
		}
	}
	runtime.ReadMemStats(&mem1)
	if grew := mem1.TotalAlloc - mem0.TotalAlloc; grew > 64<<20 {
		t.Errorf("the table allocated %d MiB: a claimed frame length was believed", grew>>20)
	}
}

// FuzzStreamFrame feeds an accepted connection's read side arbitrary
// bytes. Whatever arrives, reading ends in an error and not a panic, and
// every message that does decode survives its own re-encoding. The seed
// corpus is every registered message and every hostile stream of the
// table above, so plain go test runs them.
func FuzzStreamFrame(f *testing.F) {
	for _, name := range wireCodec.Names() {
		if s, ok := wireSamples[name]; ok {
			f.Add(append(appendPreamble(nil, 3), frameOf(snapshotEncoding(s.want))...))
		}
	}
	for _, h := range hostileStreams() {
		f.Add(h.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		if _, err := readPreamble(br); err != nil {
			return
		}
		for {
			m, err := readFrame(br)
			if err != nil {
				if m != nil {
					t.Fatalf("readFrame returned both %#v and %v", m, err)
				}
				return
			}
			frame, err := appendFrame(nil, m)
			if err != nil {
				t.Fatalf("a decoded %T does not encode: %v", m, err)
			}
			again, err := decodeBody(frame[headerLen:])
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("%#v re-encoded and decoded as %#v, %v", m, again, err)
			}
		}
	})
}

// TestUnsendableMessageClosesTheConnection is the send side of the same
// rule: a value the codec has no name for is not dropped and not sent in
// some other encoding; the connection closes, both owners are told, and
// the log names the type.
func TestUnsendableMessageClosesTheConnection(t *testing.T) {
	type stranger struct{ X int }
	w := NewWorld(1)
	told := make(chan error, 2)
	up := make(chan struct{})
	srv := w.AddNode(0).Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{
				OnMessage: func(cnet.Conn, cnet.Message) { told <- errors.New("something was delivered") },
				OnClose:   func(_ cnet.Conn, err error) { told <- err },
			}
		})
		close(up)
	})
	defer srv.Kill()
	<-up
	cli := w.AddNode(1).Spawn("cli", func(env cnet.Env) {
		env.Dial(0, cnet.ClassIntra, "press", cnet.StreamHandlers{
			OnClose: func(_ cnet.Conn, err error) { told <- err },
		}, func(c cnet.Conn, err error) {
			if err != nil {
				told <- err
				return
			}
			if !c.TrySend(stranger{1}, 8) {
				told <- errors.New("TrySend reported a full window")
			}
		})
	})
	defer cli.Kill()
	for i := 0; i < 2; i++ {
		if err := recv(t, told, "both ends to hear of the close"); !errors.Is(err, cnet.ErrClosed) {
			t.Fatalf("an end was told %v, want cnet.ErrClosed", err)
		}
	}
	e, ok := w.Log().Query().Kind(KWireFault).First()
	if !ok || e.Node != 1 || !strings.Contains(e.Detail, "stranger") {
		t.Fatalf("world log: %v (found %v), want a wire fault on node 1 naming the type", e, ok)
	}
}
