// Package snapio holds the low-level machinery the snapshot engine is
// built from: a compact varint codec, the direction-free context that
// subsystems describe their state, claim pending kernel events and
// exchange object references through, and an in-place capturer for
// math/rand generator state.
//
// It deliberately imports nothing above the simulation kernel so that
// every simulation package (simnet, machine, server, workload, ...) can
// depend on it without cycles; the orchestration (harness.Snap) lives in
// internal/harness.
package snapio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SnapError is the panic payload snapshot code raises on a structural
// problem (unclaimed pending event, unknown message type, corrupt
// stream). Take/Restore recover it at the boundary and surface it as an
// ordinary error.
type SnapError struct{ Msg string }

func (e *SnapError) Error() string { return "snapshot: " + e.Msg }

// Failf raises a SnapError; the snapshot boundary converts it to error.
func Failf(format string, args ...any) {
	panic(&SnapError{Msg: fmt.Sprintf(format, args...)})
}

// Encoder appends a varint-based byte stream. It cannot fail.
type Encoder struct {
	buf []byte
	// msg is the context MsgCodec.Encode walks a lone message with. It
	// lives here, in an object the caller already has, because livenet
	// encodes and decodes a message per frame: with a context allocated
	// per message pressbench's live3 read 3.7 % more raw wall time (worse
	// in 16 of 24 back-to-back pairs), with this it reads the parent's.
	msg Ctx
}

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current stream length.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zig-zag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 bit pattern.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads an Encoder stream. The first malformed read makes the
// error (a *SnapError) sticky and every subsequent read returns zero
// values, so decode code can run straight-line and check Err once at the
// end; structural validation (counts, tags) additionally raises SnapError
// via Failf.
type Decoder struct {
	buf []byte
	off int
	err error
	msg Ctx // MsgCodec.Decode's context; see Encoder.msg
}

// NewDecoder wraps an encoded stream.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Done reports whether the stream is fully consumed without error.
func (d *Decoder) Done() bool { return d.err == nil && d.off == len(d.buf) }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = &SnapError{Msg: fmt.Sprintf("corrupt stream: bad %s at offset %d", what, d.off)}
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if !d.minimal(n) {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if !d.minimal(n) {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// minimal reports whether the n-byte varint at the offset was read and is
// the encoding the Encoder writes: one whose last byte is not a zero
// continuation. A value has one encoding, so what decodes re-encodes to
// the bytes it came from.
func (d *Decoder) minimal(n int) bool {
	return n == 1 || n > 1 && d.buf[d.off+n-1] != 0
}

// Int reads an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	b := d.buf[d.off]
	if b > 1 {
		d.fail("bool")
		return false
	}
	d.off++
	return b == 1
}

// F64 reads a float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Count reads a non-negative element count, the only door a length
// handed in from outside comes through, and refuses it before anything
// is allocated: against the caller's sanity bound, and against the bytes
// left in the stream, since every counted element encodes at least one.
func (d *Decoder) Count(max int) int {
	n := d.Int()
	if n < 0 || n > max {
		Failf("count %d out of range [0,%d]", n, max)
	}
	if left := len(d.buf) - d.off; n > left {
		Failf("count %d exceeds the %d bytes left in the stream", n, left)
	}
	return n
}
