package chaos

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
)

// reproBody is a valid repro file of a 4-node COOP world, edited by edit
// (nil keeps it): the JSON a hand-editor would touch, as generic values.
func reproBody(t testing.TB, edit func(file, options map[string]any, entries []any)) []byte {
	sched := Schedule{{At: 10 * time.Second, Fault: faults.NodeCrash, Component: 1, Duration: 40 * time.Second}}
	data, err := NewRepro(harness.VCOOP, fastOpts(1), fastRun(), sched, Violation{Invariant: "availability-floor"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if edit == nil {
		return data
	}
	var file map[string]any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	delete(file, "hash") // an edited schedule no longer matches it
	edit(file, file["options"].(map[string]any), file["schedule"].([]any))
	if data, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	return data
}

// reproRows are the hand edits of ROADMAP item 2e — those refused used to
// panic in Replay, with exit 2, which replayRepro reserves for "did not
// reproduce" — and the valid file they edit.
var reproRows = []struct {
	name string
	edit func(file, options map[string]any, entries []any)
	want string // substring of LoadRepro's error; "" loads
}{
	{"valid", nil, ""},
	{"unknown-version", func(file, _ map[string]any, _ []any) { file["version"] = "BOGUS" }, `unknown version "BOGUS"`},
	{"negative-nodes", func(_, o map[string]any, _ []any) { o["Nodes"] = -3 }, "options no world is built with"},
	{"component-past-the-nodes", func(_, _ map[string]any, es []any) { es[0].(map[string]any)["component"] = 99 }, "has 4 node-crash components"},
	{"component-one-past", func(_, _ map[string]any, es []any) { es[0].(map[string]any)["component"] = 4 }, "has 4 node-crash components"},
	{"negative-component", func(_, _ map[string]any, es []any) { es[0].(map[string]any)["component"] = -1 }, "has 4 node-crash components"},
	{"no-frontend", func(_, _ map[string]any, es []any) { es[0].(map[string]any)["fault"] = "frontend-failure" }, "has 0 frontend-failure components"},
	{"no-rate", func(_, o map[string]any, _ []any) { delete(o, "Rate") }, ""},
}

// TestLoadReproRefusesWhatNoWorldRuns: a repro file is hand-editable, so
// LoadRepro holds it to the world it names — version, options, and each
// entry's component against its class's count there — and refuses with an
// error what Replay would have panicked on.
func TestLoadReproRefusesWhatNoWorldRuns(t *testing.T) {
	for _, row := range reproRows {
		t.Run(row.name, func(t *testing.T) {
			_, err := LoadRepro(reproBody(t, row.edit))
			switch {
			case row.want == "" && err != nil:
				t.Fatalf("LoadRepro: %v", err)
			case row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)):
				t.Fatalf("LoadRepro: %v, want an error containing %q", err, row.want)
			}
		})
	}
}

// A repro without an offered rate loads, and replays at the one the
// saturation probe resolves (Engine.Build), as its campaign's did.
func TestReplayResolvesAMissingRate(t *testing.T) {
	rep, err := LoadRepro(reproBody(t, func(_, o map[string]any, _ []any) { delete(o, "Rate") }))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := rep.Replay(DefaultInvariants())
	if err != nil || res.Offered == 0 {
		t.Fatalf("replay without a rate: %v, %d offered", err, res.Offered)
	}
}

// FuzzLoadRepro: whatever a file says, LoadRepro returns a repro or an
// error, never a panic. Seeded with the rows above and a valid body cut
// short and with one bit flipped, spread over its length.
func FuzzLoadRepro(f *testing.F) {
	for _, row := range reproRows {
		f.Add(reproBody(f, row.edit))
	}
	body := reproBody(f, nil)
	for i := range 16 {
		f.Add(body[:len(body)*i/16])
	}
	for i := range 48 {
		flipped := append([]byte(nil), body...)
		flipped[(len(body)-1)*i/47] ^= 1 << (i % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		LoadRepro(data)
	})
}
