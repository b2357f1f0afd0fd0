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
	w.tcpAddrs[portKey{node, port}] = &listener{addr: ln.Addr().String()}
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
	var trunk net.Conn // the one connection every dial to node 50 rides on
	defer func() {
		if trunk != nil {
			trunk.Close()
		}
	}()

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

	var id uint32
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

		// On the socket: the preamble once per trunk, then per dial an open,
		// a msg frame around the snapshot engine's bytes and a fin, nothing
		// else.
		send(50, s.outgoing())
		var wantStream []byte
		if trunk == nil {
			c, err := raw.Accept()
			if err != nil {
				t.Fatal(err)
			}
			trunk = c
			wantStream = appendPreamble(nil, 7)
		}
		id++
		wantStream = append(wantStream, ctlFrame(kindOpen, id)...)
		wantStream = append(wantStream, msgFrame(id, snapshotEncoding(s.want))...)
		wantStream = append(wantStream, ctlFrame(kindFin, id)...)
		trunk.SetReadDeadline(time.Now().Add(5 * time.Second))
		stream := make([]byte, len(wantStream))
		if _, err := io.ReadFull(trunk, stream); err != nil {
			t.Fatalf("%s: reading the raw trunk: %v", name, err)
		}
		if !bytes.Equal(stream, wantStream) {
			t.Errorf("%s: on the wire % x, want open, msg frame of the snapshot encoding, fin: % x", name, stream, wantStream)
		}
	}
	for name := range wireSamples {
		if _, err := decodeBody(snapshotEncoding(wireSamples[name].want)); err != nil {
			t.Errorf("sample %s is not a registered message: %v", name, err)
		}
	}
}

// hostileStream is what a misbehaving dialer writes on its trunk before
// half-closing.
type hostileStream struct {
	name   string
	stream []byte
	// fault: the stream breaks the protocol (as opposed to merely ending
	// early), so the world log must say why the trunk was closed.
	fault string
	// opens: stream 1 was opened, so its owner is owed one OnClose.
	opens bool
}

// ctlFrame is an open or a fin for stream id.
func ctlFrame(kind byte, id uint32) []byte { return appendCtl(nil, kind, id) }

// msgFrame is a msg frame for stream id around body, whatever body is.
func msgFrame(id uint32, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(frameHead-lengthLen+len(body)))
	return append(binary.BigEndian.AppendUint32(append(b, kindMsg), id), body...)
}

func hostileStreams() []hostileStream {
	hello := appendPreamble(nil, 3)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	open1 := cat(hello, ctlFrame(kindOpen, 1))
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
	// header is a msg frame's head claiming a body of n bytes.
	header := func(n uint32) []byte {
		b := binary.BigEndian.AppendUint32(nil, frameHead-lengthLen+n)
		return binary.BigEndian.AppendUint32(append(b, kindMsg), 1)
	}
	return []hostileStream{
		{"another protocol", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), "bad preamble", false},
		{"a later wire version", cat([]byte{'P', 'R', 'S', wireVersion + 1, 0, 0, 0, 3}, ctlFrame(kindOpen, 1), msgFrame(1, req)), "wire version", false},
		{"a negative sender", cat([]byte{'P', 'R', 'S', wireVersion, 0xff, 0xff, 0xff, 0xff}, ctlFrame(kindOpen, 1), msgFrame(1, req)), "names node -1", false},
		{"half a preamble", hello[:5], "", false},
		{"a 4 GiB frame", cat(open1, []byte{0xff, 0xff, 0xff, 0xff}), "over the", true},
		{"a frame one byte over the bound", cat(open1, header(maxFrame+1)), "over the", true},
		{"half a length", cat(open1, []byte{0, 0}), "", true},
		{"a truncated frame", cat(open1, msgFrame(1, req)[:frameHead+3]), "", true},
		{"a large frame that never comes", cat(open1, header(maxFrame), req), "", true},
		{"an unknown message name", cat(open1, msgFrame(1, unknown.Bytes())), `unknown message type "press.Nope"`, true},
		{"no message at all", cat(open1, msgFrame(1, nameless.Bytes())), "empty message", true},
		{"a count larger than the frame that carries it", cat(open1, msgFrame(1, greedy.Bytes())), "exceeds the 0 bytes left", true},
		{"an empty frame", cat(open1, msgFrame(1, nil)), "corrupt stream", true},
		{"trailing bytes in a frame", cat(open1, msgFrame(1, append(append([]byte(nil), req...), 0))), "bytes left over", true},
		{"a message cut short inside its frame", cat(open1, msgFrame(1, req[:len(req)-1])), "corrupt stream", true},
		{"a good frame, then garbage", cat(open1, msgFrame(1, req), msgFrame(1, []byte{0xff})), "corrupt stream", true},
		{"a msg for a stream never opened", cat(hello, msgFrame(1, req)), "never opened", false},
		{"a duplicate open", cat(open1, ctlFrame(kindOpen, 1)), "duplicate open of stream 1", true},
		{"a frame after fin", cat(open1, ctlFrame(kindFin, 1), msgFrame(1, req)), "stream 1 after its fin", true},
		{"an unknown kind", cat(open1, ctlFrame(9, 1)), "unknown frame kind 9", true},
		{"an id past the bound", cat(hello, ctlFrame(kindOpen, 2)), "past the next id 1", false},
		{"a stream id cut short", cat(open1, []byte{0, 0, 0, 3, kindMsg, 0, 0}), "no room for its kind and stream id", true},
		{"an open with a body", cat(open1, binary.BigEndian.AppendUint32(nil, frameHead-lengthLen+1), []byte{kindOpen, 0, 0, 0, 2, 0}), "bytes left over in a kind-1 frame", true},
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
	addr := w.tcpAddrs[portKey{0, "press"}].addr
	w.mu.Unlock()

	// talk writes stream as a dialer would on a trunk of its own and reads
	// until the listener's side closes the trunk, or, when a reply of want
	// bytes is due, until that has arrived; only then does it close its own
	// end, which ends every stream on the trunk.
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
		if h.opens {
			if err := recv(t, closed, h.name+": OnClose"); !errors.Is(err, cnet.ErrClosed) {
				t.Errorf("%s: OnClose(%v), want cnet.ErrClosed", h.name, err)
			}
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
		good := append(appendPreamble(nil, 3), ctlFrame(kindOpen, 1)...)
		good = append(good, msgFrame(1, snapshotEncoding(&server.ReqMsg{ID: 5}))...)
		want := msgFrame(1, snapshotEncoding(&server.RespMsg{ID: 5, OK: true}))
		reply := talk(good, len(want))
		recv(t, served, h.name+": the next well-formed request")
		if err := recv(t, closed, h.name+": the well-formed client's close"); !errors.Is(err, cnet.ErrClosed) {
			t.Errorf("after %s the well-formed stream ended with %v, want cnet.ErrClosed", h.name, err)
		}
		select {
		case err := <-closed:
			t.Errorf("%s: a stream was told of its end twice, the second time %v", h.name, err)
		default:
		}
		if !bytes.Equal(reply, want) {
			t.Errorf("after %s a well-formed request was answered % x, want % x", h.name, reply, want)
		}
	}
	runtime.ReadMemStats(&mem1)
	if grew := mem1.TotalAlloc - mem0.TotalAlloc; grew > 64<<20 {
		t.Errorf("the table allocated %d MiB: a claimed frame length was believed", grew>>20)
	}
}

// FuzzStreamFrame feeds a listener's end of a trunk arbitrary bytes.
// Whatever arrives, reading ends in an error and not a panic, every
// message that does decode survives its own re-encoding, and the trunk's
// stream table (serve) ends in an error too. The seed corpus is every
// registered message on a stream of its own and every hostile stream of
// the table above, so plain go test runs them.
func FuzzStreamFrame(f *testing.F) {
	for _, name := range wireCodec.Names() {
		if s, ok := wireSamples[name]; ok {
			stream := append(appendPreamble(nil, 3), ctlFrame(kindOpen, 1)...)
			stream = append(stream, msgFrame(1, snapshotEncoding(s.want))...)
			f.Add(append(stream, ctlFrame(kindFin, 1)...))
		}
	}
	for _, h := range hostileStreams() {
		f.Add(h.stream)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		br := bufio.NewReader(bytes.NewReader(in))
		if _, err := readPreamble(br); err != nil {
			return
		}
		for {
			kind, id, m, err := readFrame(br)
			if err != nil {
				if m != nil {
					t.Fatalf("readFrame returned both %#v and %v", m, err)
				}
				break
			}
			if kind != kindMsg {
				continue
			}
			frame, err := appendMsg(nil, id, m)
			if err != nil {
				t.Fatalf("a decoded %T does not encode: %v", m, err)
			}
			again, err := decodeBody(frame[frameHead:])
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("%#v re-encoded and decoded as %#v, %v", m, again, err)
			}
		}
		// The stream table, on an end whose process is dead: nothing runs.
		tr := &trunk{env: &Env{dead: true}, peer: cnet.None, streams: make(map[uint32]*stream),
			accept: func(cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} }}
		if err := tr.serve(bufio.NewReader(bytes.NewReader(in))); err == nil {
			t.Fatal("serve returned without an error")
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
