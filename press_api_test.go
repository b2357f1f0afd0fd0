package press_test

import (
	"fmt"
	"strings"
	"testing"

	"press"
)

// A world that cannot be built is refused with the reason before anything
// is built: 1,024 servers take node id 1000, the client driver's, and
// without the check Build panicked deep in the network with "simnet:
// duplicate iface".
func TestBuildRefusesCollidingNodeIDs(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "collide with the fixed node ids") {
			t.Errorf("Build of 1,024 servers panicked with %q, want the fixed-id collision", msg)
		}
	}()
	press.New(press.WithOptions(press.Options{Seed: 1, Nodes: 1024, Protocol: press.Scalable, Rate: 100})).Build()
	t.Error("Build of 1,024 servers returned a world")
}

// TestClusterHandleOptions checks that the functional options reach the
// deployment the handle builds. The rate is fixed so Build runs no
// saturation probe.
func TestClusterHandleOptions(t *testing.T) {
	c := press.New(press.WithVersion(press.FME), press.WithOptions(press.Options{Seed: 7, Rate: 100}), press.WithWorkers(3))
	d := c.Build()
	if d.Version != press.FME {
		t.Fatalf("built version %v, want FME", d.Version)
	}
	if d.Opts.Seed != 7 {
		t.Fatalf("built seed %d, want 7", d.Opts.Seed)
	}
}

// TestWithOptionsComposition checks that WithOptions and WithVersion
// compose in either order.
func TestWithOptionsComposition(t *testing.T) {
	o := press.FastOptions(9)
	o.Rate = 100
	for _, opts := range [][]press.Option{
		{press.WithOptions(o), press.WithVersion(press.FME)},
		{press.WithVersion(press.FME), press.WithOptions(o)},
	} {
		d := press.New(opts...).Build()
		if d.Version != press.FME {
			t.Fatalf("built version %v, want FME", d.Version)
		}
		if d.Opts.Seed != 9 || d.Opts.Docs != o.Docs {
			t.Fatalf("built seed %d, docs %d; want 9, %d from WithOptions", d.Opts.Seed, d.Opts.Docs, o.Docs)
		}
	}
}
