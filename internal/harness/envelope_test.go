package harness

import (
	"bytes"
	"reflect"
	"testing"

	"press/internal/snapio"
)

// optionLeaves lists every non-struct field of t, nested structs (Mod)
// flattened, as reflect.Value.FieldByIndex paths.
func optionLeaves(t reflect.Type, prefix []int) (out [][]int) {
	for i := 0; i < t.NumField(); i++ {
		idx := append(prefix[:len(prefix):len(prefix)], i)
		if ft := t.Field(i).Type; ft.Kind() == reflect.Struct {
			out = append(out, optionLeaves(ft, idx)...)
		} else {
			out = append(out, idx)
		}
	}
	return out
}

// TestEnvelopeCarriesEveryOption holds Options.snap to the struct: a world
// is restored from what the envelope says it was built with, so an option
// the walk leaves out restores as its default without an error — until
// format 4 the load modulation did, and a diurnal world came back
// stationary. Every field, one at a time, must change the envelope's bytes
// and come back out of them.
func TestEnvelopeCarriesEveryOption(t *testing.T) {
	envelope := func(o Options) []byte {
		x := &snapio.Ctx{Enc: &snapio.Encoder{}}
		(&Snap{Version: VCOOP, Opts: o, Rate: 100}).envelope(x)
		return x.Enc.Bytes()
	}
	zero := envelope(Options{})
	typ := reflect.TypeOf(Options{})
	for _, idx := range optionLeaves(typ, nil) {
		var name string
		for i := range idx {
			name += "." + typ.FieldByIndex(idx[:i+1]).Name
		}
		var o Options
		switch f := reflect.ValueOf(&o).Elem().FieldByIndex(idx); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Options%s is a %s: teach Options.snap and this test to move one", name, f.Kind())
		}
		blob := envelope(o)
		if bytes.Equal(blob, zero) {
			t.Errorf("Options%s is not in the envelope: a world built with it restores without it", name)
			continue
		}
		if back, err := Load(blob); err != nil || back.Opts != o {
			t.Errorf("Options%s: Load read back %+v (err %v), wrote %+v", name, back, err, o)
		}
	}
}
