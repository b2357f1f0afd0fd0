package snapio_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"press/internal/frontend"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/snapio"
)

// wireMsgs is the codec the snapshot engine and livenet both build.
func wireMsgs() *snapio.MsgCodec {
	c := snapio.NewMsgCodec()
	server.RegisterMessages(c)
	frontend.RegisterMessages(c)
	membership.RegisterMessages(c)
	return c
}

// decode reads one message, turning the codec's panic into its error.
func decode(c *snapio.MsgCodec, d *snapio.Decoder) (m any, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*snapio.SnapError)
			if !ok {
				panic(r)
			}
			err = se
		}
	}()
	m = c.Decode(d)
	return m, d.Err()
}

// msgSeeds is one encoding per registered message: its name and a run of
// zero bytes, decoded and encoded again, so each field holds its zero.
func msgSeeds(c *snapio.MsgCodec) [][]byte {
	var seeds [][]byte
	for _, name := range c.Names() {
		var e snapio.Encoder
		e.Str(name)
		m, err := decode(c, snapio.NewDecoder(append(e.Bytes(), make([]byte, 64)...)))
		if err != nil {
			panic(name + ": " + err.Error())
		}
		var again snapio.Encoder
		c.Encode(&again, m)
		seeds = append(seeds, again.Bytes())
	}
	return seeds
}

// FuzzMsgDecode feeds the bare message decoder arbitrary bytes. Whatever
// arrives, it returns a *snapio.SnapError or a message that encodes to
// exactly the bytes it consumed; it never panics otherwise, and allocates
// no more than the input's length can justify. The seeds are every
// registered message, each of its truncations and each of its bytes
// flipped, so plain go test runs them.
func FuzzMsgDecode(f *testing.F) {
	c := wireMsgs()
	for _, enc := range msgSeeds(c) {
		f.Add(enc)
		for i := range enc {
			f.Add(enc[:i])
			flipped := bytes.Clone(enc)
			flipped[i] ^= 0xff
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// The average over a few decodes, so that what the fuzzing engine
		// allocates beside the test does not count as the decoder's.
		const reps = 16
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		for i := 0; i < reps; i++ {
			decode(c, snapio.NewDecoder(in))
		}
		runtime.ReadMemStats(&mem1)
		if per, bound := (mem1.TotalAlloc-mem0.TotalAlloc)/reps, uint64(1024+64*len(in)); per > bound {
			t.Fatalf("decoding %d bytes allocated %d, over the %d-byte bound", len(in), per, bound)
		}
		d := snapio.NewDecoder(in)
		m, err := decode(c, d)
		if err != nil {
			var se *snapio.SnapError
			if !errors.As(err, &se) {
				t.Fatalf("decode failed with %T %v, want a *snapio.SnapError", err, err)
			}
			return
		}
		var e snapio.Encoder
		c.Encode(&e, m)
		if consumed := in[:d.Offset()]; !bytes.Equal(e.Bytes(), consumed) {
			t.Fatalf("% x decoded as %#v, which encodes as % x", consumed, m, e.Bytes())
		}
	})
}
