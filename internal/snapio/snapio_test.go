package snapio

import (
	"math/rand"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U64(0)
	e.U64(1<<63 + 7)
	e.I64(-42)
	e.Int(123456)
	e.Dur(65 * time.Millisecond)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.14159)
	e.Str("hello")
	e.Str("")
	e.Blob([]byte{1, 2, 3})

	d := NewDecoder(e.Bytes())
	if got := d.U64(); got != 0 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.U64(); got != 1<<63+7 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.Dur(); got != 65*time.Millisecond {
		t.Fatalf("Dur = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := d.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Str(); got != "" {
		t.Fatalf("Str = %q", got)
	}
	b := d.Blob()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("Blob = %v", b)
	}
	if !d.Done() {
		t.Fatalf("stream not fully consumed: err=%v", d.Err())
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.Str("abcdef")
	d := NewDecoder(e.Bytes()[:3])
	_ = d.Str()
	if d.Err() == nil {
		t.Fatal("expected sticky error on truncated stream")
	}
}

// TestRandStateRoundTrip is the guard for the unsafe generator-state
// capture: a generator restored into a differently-seeded instance must
// continue the exact sequence of the original, across every draw kind
// the simulation uses.
func TestRandStateRoundTrip(t *testing.T) {
	orig := rand.New(rand.NewSource(42))
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		orig.Int63()
		ref.Int63()
		orig.Float64()
		ref.Float64()
	}
	var e Encoder
	SaveRand(&e, orig)

	dst := rand.New(rand.NewSource(7))
	dst.Int63() // desync on purpose
	d := NewDecoder(e.Bytes())
	LoadRand(d, dst)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := 0; i < 1000; i++ {
		if dst.Int63() != ref.Int63() {
			t.Fatalf("Int63 diverged at draw %d", i)
		}
		if dst.Float64() != ref.Float64() {
			t.Fatalf("Float64 diverged at draw %d", i)
		}
		if dst.ExpFloat64() != ref.ExpFloat64() {
			t.Fatalf("ExpFloat64 diverged at draw %d", i)
		}
	}
}

func TestRefTable(t *testing.T) {
	a, b := &struct{ x int }{1}, &struct{ x int }{2}
	save := NewRefTable(nil)
	if save.Ref(nil) != 0 {
		t.Fatal("nil must map to 0")
	}
	ia, ib := save.Ref(a), save.Ref(b)
	if ia != 1 || ib != 2 || save.Ref(a) != ia {
		t.Fatalf("ids: a=%d b=%d", ia, ib)
	}

	blanks := 0
	load := NewRefTable(func() any { blanks++; return &struct{ x int }{} })
	first := load.Obj(5) // forward reference creates a blank
	if blanks != 1 {
		t.Fatalf("blanks = %d", blanks)
	}
	if load.Obj(5) != first {
		t.Fatal("forward reference not stable")
	}
	if load.Obj(0) != nil {
		t.Fatal("id 0 must resolve to nil")
	}
}

func TestMsgCodec(t *testing.T) {
	type msg struct{ A int }
	c := NewMsgCodec()
	c.Register("m", &msg{},
		func(e *Encoder, v any) { e.Int(v.(*msg).A) },
		func(d *Decoder) any { return &msg{A: d.Int()} })
	var e Encoder
	c.Encode(&e, &msg{A: 9})
	c.Encode(&e, nil)
	d := NewDecoder(e.Bytes())
	if got := c.Decode(d).(*msg); got.A != 9 {
		t.Fatalf("A = %d", got.A)
	}
	if c.Decode(d) != nil {
		t.Fatal("nil message mismatch")
	}

	c.Register("a", msg{},
		func(e *Encoder, v any) { e.Int(v.(msg).A) },
		func(d *Decoder) any { return msg{A: d.Int()} })
	if got := c.Names(); len(got) != 2 || got[0] != "a" || got[1] != "m" {
		t.Fatalf("Names() = %q, want the registered names sorted", got)
	}
}
