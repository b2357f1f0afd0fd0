package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"press/internal/snapio"
)

// TestEnvelopeCarriesEveryOption holds Options.snap to the struct: a world
// is restored from what the envelope says it was built with, so an option
// the walk leaves out restores as its default without an error — until
// format 4 one did, and a world came back offering a different load.
// Every field, one at a time, must change the envelope's bytes and come
// back out of them. The retired slots (the operator response, the pair
// flag, the trace skew, the load modulation) are written from constants,
// not from Options, so the zero Options comes back out as itself.
func TestEnvelopeCarriesEveryOption(t *testing.T) {
	envelope := func(o Options) []byte {
		x := &snapio.Ctx{Enc: &snapio.Encoder{}}
		(&Snap{Version: VCOOP, Opts: o, Rate: 100}).envelope(x)
		return x.Enc.Bytes()
	}
	zero := envelope(Options{})
	if back, err := Load(zero); err != nil || back.Opts != (Options{}) {
		t.Errorf("the zero Options: Load read back %+v (err %v)", back, err)
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var o Options
		switch f := reflect.ValueOf(&o).Elem().Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Options.%s is a %s: teach Options.snap and this test to move one", name, f.Kind())
		}
		blob := envelope(o)
		if bytes.Equal(blob, zero) {
			t.Errorf("Options.%s is not in the envelope: a world built with it restores without it", name)
			continue
		}
		if back, err := Load(blob); err != nil || back.Opts != o {
			t.Errorf("Options.%s: Load read back %+v (err %v), wrote %+v", name, back, err, o)
		}
	}
}

// TestCheckWorldBuildsOnlyMeasuredVersions: a Version is a world the
// harness builds. CheckWorld accepts every measured version and refuses
// Figure 8's two modeled rows by name, which the model computes from
// C-MON's loads and no build makes.
func TestCheckWorldBuildsOnlyMeasuredVersions(t *testing.T) {
	for _, v := range AllMeasuredVersions() {
		if err := CheckWorld(v, Options{}); err != nil {
			t.Errorf("CheckWorld(%s): %v", v, err)
		}
	}
	for _, v := range []Version{"X-SW", "X-SW+RAID"} {
		if err := CheckWorld(v, Options{}); err == nil || !strings.Contains(err.Error(), "unknown version") {
			t.Errorf("CheckWorld(%s): %v, want an unknown version", v, err)
		}
	}
}
