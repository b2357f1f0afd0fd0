package snapio

import (
	"math/rand"
	"reflect"
	"sync"
	"unsafe"
)

// math/rand does not expose generator state, but byte-identical restore
// needs every random stream to resume mid-sequence. The layout of
// rand.Rand over the default source has been stable for the life of the
// package (an additive lagged-Fibonacci generator with a 607-entry
// state vector); we mirror it with unsafe and guard the assumption two
// ways: a reflection check of field names and offsets, and a functional
// round-trip self-test — both run once, and Ctx.Rand refuses to operate
// if either fails.

const rngLen = 607

type rngSourceMirror struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

type ifaceWords struct{ typ, data unsafe.Pointer }

type randMirror struct {
	src     ifaceWords
	s64     ifaceWords
	readVal int64
	readPos int8
}

var (
	randLayoutOnce sync.Once
	randLayoutErr  string
)

func checkRandLayout() {
	// Field names, order and offsets of rand.Rand must match randMirror.
	rt := reflect.TypeOf(rand.Rand{})
	want := []struct {
		name string
		off  uintptr
	}{
		{"src", unsafe.Offsetof(randMirror{}.src)},
		{"s64", unsafe.Offsetof(randMirror{}.s64)},
		{"readVal", unsafe.Offsetof(randMirror{}.readVal)},
		{"readPos", unsafe.Offsetof(randMirror{}.readPos)},
	}
	if rt.NumField() != len(want) {
		randLayoutErr = "rand.Rand field count changed"
		return
	}
	for i, w := range want {
		f := rt.Field(i)
		if f.Name != w.name || f.Offset != w.off {
			randLayoutErr = "rand.Rand layout changed: field " + f.Name
			return
		}
	}
	src := reflect.ValueOf(rand.NewSource(1)).Elem().Type()
	if src.NumField() != 3 ||
		src.Field(0).Name != "tap" || src.Field(0).Offset != unsafe.Offsetof(rngSourceMirror{}.tap) ||
		src.Field(1).Name != "feed" || src.Field(1).Offset != unsafe.Offsetof(rngSourceMirror{}.feed) ||
		src.Field(2).Name != "vec" || src.Field(2).Offset != unsafe.Offsetof(rngSourceMirror{}.vec) ||
		src.Field(2).Type.Len() != rngLen {
		randLayoutErr = "rand.rngSource layout changed"
		return
	}

	// Functional round-trip: capture a warmed generator's state into a
	// differently-seeded one and require identical continuations.
	a := rand.New(rand.NewSource(12345))
	ref := rand.New(rand.NewSource(12345))
	for i := 0; i < 100; i++ {
		a.Int63()
		ref.Int63()
	}
	b := rand.New(rand.NewSource(999))
	*sourceOf(b) = *sourceOf(a)
	mb, ma := mirrorOf(b), mirrorOf(a)
	mb.readVal, mb.readPos = ma.readVal, ma.readPos
	for i := 0; i < 100; i++ {
		if b.Int63() != ref.Int63() || b.Float64() != ref.Float64() {
			randLayoutErr = "rand state round-trip diverged"
			return
		}
	}
}

func mirrorOf(r *rand.Rand) *randMirror { return (*randMirror)(unsafe.Pointer(r)) }

func sourceOf(r *rand.Rand) *rngSourceMirror {
	m := mirrorOf(r)
	return (*rngSourceMirror)(m.src.data)
}

func requireRandLayout() {
	randLayoutOnce.Do(checkRandLayout)
	if randLayoutErr != "" {
		Failf("%s; snapshots unsupported on this runtime", randLayoutErr)
	}
}

// Rand moves the full generator state of r, in place: after a load every
// existing reference to r resumes the saved sequence.
func (x *Ctx) Rand(r *rand.Rand) {
	requireRandLayout()
	src := sourceOf(r)
	m := mirrorOf(r)
	Int(x, &src.tap)
	Int(x, &src.feed)
	for i := range src.vec {
		Int(x, &src.vec[i])
	}
	Int(x, &m.readVal)
	Int(x, &m.readPos)
	if src.tap < 0 || src.tap >= rngLen || src.feed < 0 || src.feed >= rngLen {
		Failf("rand state out of range (tap=%d feed=%d)", src.tap, src.feed)
	}
}
