package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemo pins the singleflight contract both engine tables share
// (campaigns and saturation probes are both instances of memo).
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
}
