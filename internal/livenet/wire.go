package livenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/snapio"
)

// The wire format.
//
// A datagram is its sender and one message:
//
//	sender NodeID (int32, big-endian)  body
//
// Streams travel on trunks: one TCP connection from a dialing incarnation
// to a listener carries every stream between them. The dialer opens the
// trunk with an 8-byte preamble, written once, as soon as it connects:
//
//	'P' 'R' 'S'  version(1)  sender NodeID (int32, big-endian)
//
// Everything after it, in both directions, is frames:
//
//	length (uint32, big-endian: what follows, 5 to 5+maxFrame)  kind(1)  stream id (uint32, big-endian)  body
//
// of three kinds. An open (no body) starts a stream: only the dialer sends
// one, numbering its streams 1, 2, 3, … in order, and it rides in the
// write of the stream's first message (or of its fin). A msg carries one
// message. A fin (no body) ends the stream both ways; there is no
// half-close. A fin answers a fin the dialer was sent, so the listener
// knows when nothing more can arrive for a stream it closed.
//
// A msg's body is exactly what snapio.MsgCodec.Encode writes for the
// message under the snapshot engine's registrations — the registered
// name, then the fields — so a message has one encoding whether it sits
// in a snapshot or crosses either socket. There is no type negotiation:
// both ends are this binary, the version byte says so, and a frame that
// breaks the protocol ends the trunk; a datagram is lost.

const (
	wireVersion = 2
	preambleLen = 8
	senderLen   = 4
	lengthLen   = 4
	// frameHead is a frame's length, kind and stream id.
	frameHead = lengthLen + 1 + 4
	// maxFrame bounds a body. The largest real message is a HelloMsg
	// listing a node's cached documents, a few bytes each; a length above
	// the bound is refused before anything is allocated for it.
	maxFrame = 1 << 20
)

// Frame kinds.
const (
	kindOpen byte = 1 + iota
	kindMsg
	kindFin
)

// errWire marks bytes that are not the protocol: a bad preamble or sender,
// an oversized, unknown or trailing-garbage frame, a frame for a stream
// that is not open, a message the codec cannot encode or does not know. A
// trunk it happens on is closed, a datagram lost.
var errWire = errors.New("livenet: malformed stream")

// wireCodec is the snapshot engine's message codec, as harness.worldMsgs.
var wireCodec = func() *snapio.MsgCodec {
	c := snapio.NewMsgCodec()
	server.RegisterMessages(c)
	frontend.RegisterMessages(c)
	membership.RegisterMessages(c)
	return c
}()

// recoverWire is the connection boundary's half of snapio.Failf's panic
// protocol, as harness.recoverSnap is the snapshot boundary's: a
// SnapError becomes the returned error, anything else is a bug and keeps
// unwinding.
func recoverWire(err *error) {
	if r := recover(); r != nil {
		se, ok := r.(*snapio.SnapError)
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("%w: %w", errWire, se)
	}
}

func appendSender(b []byte, from cnet.NodeID) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(int32(from)))
}

// parseSender reads who is talking; no node has a negative ID.
func parseSender(p []byte) (cnet.NodeID, error) {
	from := cnet.NodeID(int32(binary.BigEndian.Uint32(p)))
	if from < 0 {
		return cnet.None, fmt.Errorf("%w: the sender names node %d", errWire, from)
	}
	return from, nil
}

func appendPreamble(b []byte, from cnet.NodeID) []byte {
	return appendSender(append(b, 'P', 'R', 'S', wireVersion), from)
}

func parsePreamble(p []byte) (cnet.NodeID, error) {
	if len(p) != preambleLen || p[0] != 'P' || p[1] != 'R' || p[2] != 'S' {
		return cnet.None, fmt.Errorf("%w: bad preamble % x", errWire, p)
	}
	if p[3] != wireVersion {
		return cnet.None, fmt.Errorf("%w: wire version %d, have %d", errWire, p[3], wireVersion)
	}
	return parseSender(p[4:])
}

// appendBody appends the body that carries m on either socket.
func appendBody(b []byte, m cnet.Message) (_ []byte, err error) {
	defer recoverWire(&err)
	if m == nil {
		return b, fmt.Errorf("%w: nil message", errWire)
	}
	var e snapio.Encoder
	wireCodec.Encode(&e, m)
	return append(b, e.Bytes()...), nil
}

// appendCtl appends an open or a fin for stream id.
func appendCtl(b []byte, kind byte, id uint32) []byte {
	b = binary.BigEndian.AppendUint32(b, frameHead-lengthLen)
	return binary.BigEndian.AppendUint32(append(b, kind), id)
}

// appendMsg appends the frame that carries m on stream id; on error b
// comes back as it was.
func appendMsg(b []byte, id uint32, m cnet.Message) ([]byte, error) {
	frame, err := appendBody(appendCtl(b, kindMsg, id), m)
	if err != nil {
		return b, err
	}
	n := len(frame) - len(b) - frameHead
	if n > maxFrame {
		return b, fmt.Errorf("%w: %T encodes to %d bytes, over the %d-byte frame bound", errWire, m, n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame[len(b):], uint32(frameHead-lengthLen+n))
	return frame, nil
}

// parseDatagram splits a packet as it came off the socket; the message
// shares nothing with p.
func parseDatagram(p []byte) (from cnet.NodeID, m cnet.Message, err error) {
	if len(p) < senderLen {
		return cnet.None, nil, fmt.Errorf("%w: a datagram of %d bytes", errWire, len(p))
	}
	if from, err = parseSender(p); err == nil {
		m, err = decodeBody(p[senderLen:])
	}
	return from, m, err
}

// decodeBody is appendBody's inverse. The value it returns shares nothing
// with body.
func decodeBody(body []byte) (m cnet.Message, err error) {
	defer recoverWire(&err)
	d := snapio.NewDecoder(body)
	m = wireCodec.Decode(d)
	switch {
	case d.Err() != nil:
		return nil, fmt.Errorf("%w: %w", errWire, d.Err())
	case !d.Done():
		return nil, fmt.Errorf("%w: bytes left over after a %T", errWire, m)
	case m == nil:
		return nil, fmt.Errorf("%w: empty message", errWire)
	}
	return m, nil
}

// readPreamble consumes the dialer's preamble. A peer that closes before
// it has sent all of one has simply closed: the error is the read's.
func readPreamble(br *bufio.Reader) (cnet.NodeID, error) {
	p, err := br.Peek(preambleLen)
	if err != nil {
		return cnet.None, err
	}
	from, err := parsePreamble(p)
	br.Discard(preambleLen)
	return from, err
}

// readFrame consumes one frame: its kind, its stream id and, for a msg,
// the message. A trunk that ends, between frames or inside one, is a read
// error and not a wire fault: the peer went away.
func readFrame(br *bufio.Reader) (kind byte, id uint32, m cnet.Message, err error) {
	p, err := br.Peek(lengthLen)
	if err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(p))
	switch {
	case n < frameHead-lengthLen:
		return 0, 0, nil, fmt.Errorf("%w: a %d-byte frame has no room for its kind and stream id", errWire, n)
	case n-(frameHead-lengthLen) > maxFrame:
		return 0, 0, nil, fmt.Errorf("%w: frame of %d bytes, over the %d-byte bound", errWire, n, maxFrame)
	}
	if p, err = br.Peek(frameHead); err != nil {
		return 0, 0, nil, err
	}
	kind, id = p[lengthLen], binary.BigEndian.Uint32(p[lengthLen+1:])
	br.Discard(frameHead)
	n -= frameHead - lengthLen
	switch {
	case kind == kindMsg:
	case kind != kindOpen && kind != kindFin:
		return 0, 0, nil, fmt.Errorf("%w: unknown frame kind %d on stream %d", errWire, kind, id)
	case n != 0:
		return 0, 0, nil, fmt.Errorf("%w: bytes left over in a kind-%d frame of stream %d", errWire, kind, id)
	default:
		return kind, id, nil, nil
	}
	if n > br.Size() {
		// Too long to decode in place (a large HelloMsg).
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return 0, 0, nil, err
		}
		m, err = decodeBody(body)
	} else {
		var body []byte
		if body, err = br.Peek(n); err != nil {
			return 0, 0, nil, err
		}
		m, err = decodeBody(body)
		br.Discard(n)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return kind, id, m, nil
}
