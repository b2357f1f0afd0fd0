package main

import "testing"

// TestExitCodes pins availlint's exit status: 0 clean, 1 on a finding,
// 2 when the run never happened.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"press/internal/cnet"}, 0},
		{"finding", []string{"press/internal/lint/testdata/src/snapfields/flagged"}, 1},
		{"unknown analyzer", []string{"-analyzers", "nope", "press/internal/cnet"}, 2},
		{"unknown flag", []string{"-json", "press/internal/cnet"}, 2},
		{"load failure", []string{"./no-such-package"}, 2},
	} {
		if got := run(c.args); got != c.want {
			t.Errorf("%s: availlint %v exited %d, want %d", c.name, c.args, got, c.want)
		}
	}
}
