package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemo pins the singleflight contract every engine table shares
// (episodes, campaigns and saturation probes are all instances of memo).
func TestMemo(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		val  any
		err  error
	}{
		{"value", 42, nil},
		{"error memoized like a value", nil, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m memo[any]
			var computes atomic.Int32
			release := make(chan struct{})
			const callers = 32
			vals := make([]any, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					vals[i], errs[i] = m.do("k", func() (any, error) {
						computes.Add(1)
						<-release
						return tc.val, tc.err
					})
				}()
			}
			close(release)
			wg.Wait()
			// A latecomer is a plain memo hit, error included.
			v, err := m.do("k", func() (any, error) { computes.Add(1); return "recomputed", nil })
			if n := computes.Load(); n != 1 {
				t.Fatalf("computed %d times, want 1", n)
			}
			for i := 0; i < callers; i++ {
				if vals[i] != tc.val || errs[i] != tc.err {
					t.Fatalf("caller %d got (%v, %v), want (%v, %v)", i, vals[i], errs[i], tc.val, tc.err)
				}
			}
			if v != tc.val || err != tc.err {
				t.Fatalf("latecomer got (%v, %v), want the memoized (%v, %v)", v, err, tc.val, tc.err)
			}
		})
	}

	t.Run("reset during an in-flight compute", func(t *testing.T) {
		var m memo[string]
		started, release := make(chan struct{}), make(chan struct{})
		inflight := make(chan string)
		go func() {
			v, _ := m.do("k", func() (string, error) { close(started); <-release; return "old", nil })
			inflight <- v
		}()
		<-started
		m.reset()
		// The flight is still open: a caller served from it would block here.
		if v, _ := m.do("k", func() (string, error) { return "new", nil }); v != "new" {
			t.Fatalf("caller after reset got %q, want a recompute", v)
		}
		close(release)
		if v := <-inflight; v != "old" {
			t.Fatalf("in-flight caller got %q, want the value it was computing", v)
		}
		if v, _ := m.do("k", func() (string, error) { return "again", nil }); v != "new" || m.len() != 1 {
			t.Fatalf("after the old flight landed the table serves %q (%d entries), want the post-reset entry", v, m.len())
		}
	})
}
