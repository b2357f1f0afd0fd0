package snapio

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"press/internal/sim"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U64(0)
	e.U64(1<<63 + 7)
	e.I64(-42)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.14159)
	e.Str("hello")
	e.Str("")

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
	(&Ctx{Enc: &e}).Rand(orig)

	dst := rand.New(rand.NewSource(7))
	dst.Int63() // desync on purpose
	d := NewDecoder(e.Bytes())
	(&Ctx{Dec: d}).Rand(dst)
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
	c.Register("m", (*msg)(nil), func(x *Ctx, v any) any {
		m := v.(*msg)
		if m == nil {
			m = new(msg)
		}
		Int(x, &m.A)
		return m
	})
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

	c.Register("a", msg{}, func(x *Ctx, v any) any {
		m := v.(msg)
		Int(x, &m.A)
		return m
	})
	if got := c.Names(); len(got) != 2 || got[0] != "a" || got[1] != "m" {
		t.Fatalf("Names() = %q, want the registered names sorted", got)
	}
}

// failure runs fn and returns the SnapError it raised, or nil.
func failure(fn func()) (se *SnapError) {
	defer func() {
		if r := recover(); r != nil {
			se = r.(*SnapError)
		}
	}()
	fn()
	return nil
}

// A count is believed only as far as the stream could back it: a section
// cut short, or a hostile one, is refused before its slice is allocated.
func TestCountRefusesMoreThanTheStreamHolds(t *testing.T) {
	var e Encoder
	nums := make([]int, 100)
	for i := range nums {
		nums[i] = i
	}
	Ints(&Ctx{Enc: &e}, &nums, 1<<20)
	whole := e.Bytes()

	var got []int
	Ints(&Ctx{Dec: NewDecoder(whole)}, &got, 1<<20)
	if len(got) != 100 || got[99] != 99 {
		t.Fatalf("whole section decoded as %d elements", len(got))
	}
	// A hundred bytes behind the two-byte count: just enough to believe it.
	if se := failure(func() { NewDecoder(whole[:102]).Count(1 << 20) }); se != nil {
		t.Fatalf("a count the stream can back was refused: %v", se)
	}
	got = nil
	se := failure(func() { Ints(&Ctx{Dec: NewDecoder(whole[:60])}, &got, 1<<20) })
	if se == nil || !strings.Contains(se.Msg, "exceeds the 58 bytes left") {
		t.Fatalf("truncated section: got %v, want the count refused against the 58 bytes left", se)
	}
	if got != nil {
		t.Fatalf("truncated section allocated %d elements before it was refused", len(got))
	}
	if se := failure(func() { NewDecoder(whole).Count(99) }); se == nil || !strings.Contains(se.Msg, "out of range") {
		t.Fatalf("count over the caller's bound: got %v", se)
	}
}

// One walk, run in both directions, writes exactly what the codec's own
// calls would and reads it back into a second value.
func TestWalkIsItsOwnInverse(t *testing.T) {
	type rec struct {
		on    bool
		n     uint64
		d     time.Duration
		small uint8
		f     float64
		s     string
		list  []int32
		byKey map[string]int
	}
	walk := func(x *Ctx, r *rec) {
		x.Bool(&r.on)
		x.U64(&r.n)
		Int(x, &r.d)
		Uint(x, &r.small)
		x.F64(&r.f)
		x.Str(&r.s)
		Ints(x, &r.list, 16)
		Map(x, r.byKey, 16, func(k *string, v *int) {
			x.Str(k)
			Int(x, v)
		})
	}
	in := rec{true, 1 << 40, -3 * time.Second, 200, 2.5, "abc", []int32{-1, 7}, map[string]int{"b": 2, "a": 1}}
	var e Encoder
	walk(&Ctx{Enc: &e}, &in)

	var want Encoder
	want.Bool(true)
	want.U64(1 << 40)
	want.I64(int64(-3 * time.Second))
	want.U64(200)
	want.F64(2.5)
	want.Str("abc")
	want.Int(2)
	want.Int(-1)
	want.Int(7)
	want.Int(2)
	want.Str("a")
	want.Int(1)
	want.Str("b")
	want.Int(2)
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("walk wrote % x, the codec calls write % x", e.Bytes(), want.Bytes())
	}

	out := rec{byKey: map[string]int{}}
	d := NewDecoder(e.Bytes())
	walk(&Ctx{Dec: d}, &out)
	if !d.Done() || !reflect.DeepEqual(in, out) {
		t.Fatalf("read back %+v (done %v), want %+v", out, d.Done(), in)
	}
}

// Pending events leave one kernel through a walk and arrive in another at
// the same (time, sequence) slots, whether a counted section or one
// record's Event moves them; an event nobody claims is reported, and so
// is a record with two events where its walk moves one.
func TestPendingEventsKeepTheirSlots(t *testing.T) {
	type job struct{ id int }
	var fired []int
	run := func(arg any) { fired = append(fired, arg.(*job).id) }
	tick := func(arg any) { fired = append(fired, -arg.(*job).id) }
	walk := func(x *Ctx, held, idle *job) sim.Timer {
		Pending(x, run, 8, nil, func(j *job) *job {
			if j == nil {
				j = new(job)
			}
			Int(x, &j.id)
			return j
		})
		if h := Event(x, tick, idle); h != (sim.Timer{}) {
			t.Errorf("a record with nothing pending came back with the handle %v", h)
		}
		return Event(x, tick, held)
	}

	a := sim.New(1)
	a.AfterArg(3*time.Second, run, &job{id: 3})
	a.AfterArg(time.Second, run, &job{id: 1})
	held := &job{id: 2}
	a.AfterArg(2*time.Second, tick, held)
	stray := a.At(5*time.Second, func() {})
	save := &Ctx{Enc: &Encoder{}, World: &World{Sim: a}}
	save.CapturePending()
	walk(save, held, &job{id: 4})
	if un := save.Unclaimed(); len(un) != 1 || un[0].At != 5*time.Second {
		t.Fatalf("unclaimed after the walk: %+v, want only the stray event at 5s", un)
	}
	stray.Stop()

	b := sim.New(2)
	walk(&Ctx{Dec: NewDecoder(save.Enc.Bytes()), World: &World{Sim: b}}, &job{id: 2}, &job{id: 4})
	type slot struct {
		at  time.Duration
		seq uint64
	}
	slots := func(s *sim.Sim) (out []slot) {
		s.VisitPending(func(at time.Duration, seq uint64, _ func(any), _ any) {
			out = append(out, slot{at, seq})
		})
		return out
	}
	if got, want := slots(b), slots(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored kernel holds %v, the saved one %v", got, want)
	}
	b.RunUntil(10 * time.Second)
	if !reflect.DeepEqual(fired, []int{1, -2, 3}) {
		t.Fatalf("restored events fired as %v, want [1 -2 3]", fired)
	}
	fired = nil
	c := sim.New(3)
	if h := walk(&Ctx{Dec: NewDecoder(save.Enc.Bytes()), World: &World{Sim: c}}, &job{id: 2}, &job{id: 4}); !h.Stop() {
		t.Fatal("the restored handle does not name its event")
	}
	if c.RunUntil(10 * time.Second); !reflect.DeepEqual(fired, []int{1, 3}) {
		t.Fatalf("with the restored handle stopped, events fired as %v, want [1 3]", fired)
	}

	a.AfterArg(4*time.Second, tick, held)
	save = &Ctx{Enc: &Encoder{}, World: &World{Sim: a}}
	save.CapturePending()
	if se := failure(func() { walk(save, held, &job{id: 4}) }); se == nil || !strings.Contains(se.Msg, "2 events pending") {
		t.Fatalf("a record with two events: got %v, want the save refused", se)
	}
}
