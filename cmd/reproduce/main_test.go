package main

import (
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	if want, err := parseFigs("all"); err != nil || want != nil {
		t.Fatalf("all: want=%v err=%v, want nil set and no error", want, err)
	}
	want, err := parseFigs("2, t1")
	if err != nil || len(want) != 2 || !want["2"] || !want["t1"] {
		t.Fatalf(`"2, t1": want=%v err=%v`, want, err)
	}
	for _, bad := range []string{"3", "2,", "", "1a,fig7"} {
		_, err := parseFigs(bad)
		if err == nil {
			t.Fatalf("-fig %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "t1, 1a, 1b, 2, 4, 6, 7, 8, 9a, 9b, 10, t2") {
			t.Fatalf("-fig %q: error does not list the valid keys: %v", bad, err)
		}
	}
}
