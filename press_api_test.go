package press_test

import (
	"testing"

	"press"
)

// TestClusterHandleOptions checks that the functional options reach the
// handle.
func TestClusterHandleOptions(t *testing.T) {
	c := press.New(press.WithVersion(press.FME), press.WithSeed(7), press.WithWorkers(3))
	if got := c.Version(); got != press.FME {
		t.Fatalf("Version() = %v, want FME", got)
	}
	if got := c.Options().Seed; got != 7 {
		t.Fatalf("Options().Seed = %d, want 7", got)
	}
}

// TestWithOptionsComposition checks WithOptions composes with later
// option functions.
func TestWithOptionsComposition(t *testing.T) {
	o := press.FastOptions(3)
	c := press.New(press.WithOptions(o), press.WithSeed(9))
	if got := c.Options().Seed; got != 9 {
		t.Fatalf("Options().Seed = %d, want 9 (WithSeed after WithOptions)", got)
	}
	if got := c.Options().Docs; got != o.Docs {
		t.Fatalf("Options().Docs = %d, want %d from WithOptions", got, o.Docs)
	}
}
