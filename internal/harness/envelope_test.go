package harness

import (
	"bytes"
	"reflect"
	"testing"

	"press/internal/snapio"
)

// TestEnvelopeCarriesEveryOption holds Options.snap to the struct: a world
// is restored from what the envelope says it was built with, so an option
// the walk leaves out restores as its default without an error — until
// format 4 one did, and a world came back offering a different load.
// Every field, one at a time, must change the envelope's bytes and come
// back out of them.
func TestEnvelopeCarriesEveryOption(t *testing.T) {
	envelope := func(o Options) []byte {
		x := &snapio.Ctx{Enc: &snapio.Encoder{}}
		(&Snap{Version: VCOOP, Opts: o, Rate: 100}).envelope(x)
		return x.Enc.Bytes()
	}
	zero := envelope(Options{})
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
