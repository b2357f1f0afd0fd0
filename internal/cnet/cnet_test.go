package cnet

import (
	"errors"
	"testing"
)

func TestClassString(t *testing.T) {
	if ClassIntra.String() != "intra" || ClassClient.String() != "client" {
		t.Fatalf("class names: %v %v", ClassIntra, ClassClient)
	}
}

func TestErrorIdentities(t *testing.T) {
	all := []error{ErrReset, ErrTimeout, ErrRefused, ErrClosed}
	for i, a := range all {
		if a.Error() == "" {
			t.Fatalf("error %d has no message", i)
		}
		for j, b := range all {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("error identity confusion between %v and %v", a, b)
			}
		}
	}
}

func TestNoneIsInvalid(t *testing.T) {
	if None != -1 {
		t.Fatalf("None = %d", None)
	}
}

// A pool keeps at most poolCap spare records: a burst's surplus is dropped
// for the collector, not remembered, and a drained pool mints again.
func TestMsgPoolIsBounded(t *testing.T) {
	type rec struct{ n int }
	var p MsgPool[rec]
	for i := 0; i < 3*poolCap; i++ {
		p.Put(&rec{n: i})
	}
	if len(p.free) != poolCap {
		t.Fatalf("pool holds %d records after a burst of %d, want %d", len(p.free), 3*poolCap, poolCap)
	}
	seen := map[*rec]bool{}
	for i := 0; i < poolCap; i++ {
		r := p.Get()
		if seen[r] {
			t.Fatalf("Get handed out %p twice", r)
		}
		seen[r] = true
	}
	if len(p.free) != 0 {
		t.Fatalf("%d records left after draining", len(p.free))
	}
	if r := p.Get(); r == nil || seen[r] || r.n != 0 {
		t.Fatalf("drained pool returned %+v, want a fresh zero record", r)
	}
}
