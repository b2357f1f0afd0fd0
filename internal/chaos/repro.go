package chaos

import (
	"encoding/json"
	"fmt"
	"time"

	"press/internal/faults"
	"press/internal/harness"
)

// ReproSchema is the current repro file schema. Version 2 added the
// gray-fault fields (per-entry severity, correlated group tags); files
// without a schema field (v1) predate them and load unchanged.
const ReproSchema = 2

// Repro is a runnable reproduction of an invariant violation: everything
// needed to replay the exact failing simulation — version, options, run
// config, and the (shrunken) schedule — plus what it violated. Repro
// files are JSON; `cmd/reproduce -chaos-replay file` replays them.
type Repro struct {
	Schema   int             `json:"schema,omitempty"`
	Version  harness.Version `json:"version"`
	Options  harness.Options `json:"options"`
	Run      RunConfig       `json:"run"`
	Schedule Schedule        `json:"schedule"`
	Violated string          `json:"violated"`
	Detail   string          `json:"detail"`
	Hash     string          `json:"hash"` // schedule digest, for naming and sanity
}

// NewRepro packages a violation into a replayable file body.
func NewRepro(v harness.Version, o harness.Options, rc RunConfig, sched Schedule, viol Violation) Repro {
	sched = sched.Canonical()
	return Repro{
		Schema:   ReproSchema,
		Version:  v,
		Options:  o,
		Run:      rc,
		Schedule: sched,
		Violated: viol.Invariant,
		Detail:   viol.Detail,
		Hash:     fmt.Sprintf("%016x", sched.Hash()),
	}
}

// Marshal renders the repro as indented JSON (the on-disk format).
func (r Repro) Marshal() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// LoadRepro parses a repro file body and validates it against the world
// it names: the version and options (harness.CheckWorld), the schedule,
// and each entry's component against its class's count in that world's
// Table 1 or gray table. The format is hand-editable, so a file no world
// can run is an error here, not a panic in Replay.
func LoadRepro(data []byte) (Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("chaos: bad repro file: %w", err)
	}
	if r.Schema > ReproSchema {
		return r, fmt.Errorf("chaos: repro schema %d is newer than this build understands (%d)", r.Schema, ReproSchema)
	}
	if err := r.Schedule.Validate(); err != nil {
		return r, err
	}
	if want := fmt.Sprintf("%016x", r.Schedule.Hash()); r.Hash != "" && r.Hash != want {
		return r, fmt.Errorf("chaos: repro hash %s does not match schedule (%s): file edited? update or drop the hash field", r.Hash, want)
	}
	if err := harness.CheckWorld(r.Version, r.Options); err != nil {
		return r, fmt.Errorf("chaos: repro file: %w", err)
	}
	topo := harness.NewTopology(r.Version, r.Options)
	comps := map[faults.Type]int{}
	for _, sp := range append(faults.Table1(topo.Nodes, 2, topo.Frontend), faults.GrayTable(topo.Nodes, 2)...) {
		comps[sp.Type] = sp.Components
	}
	for _, e := range r.Schedule {
		if n := comps[e.Fault]; e.Component < 0 || e.Component >= n {
			return r, fmt.Errorf("chaos: repro entry %s: a %d-server %s world has %d %s components", e, topo.Nodes, r.Version, n, e.Fault)
		}
	}
	return r, nil
}

// Replay re-executes the repro and re-checks the given invariants. A file
// without an offered rate replays at the one the saturation probe
// resolves, as its campaign did.
func (r Repro) Replay(invs []Invariant) (Result, []Violation, error) {
	res, err := Run(harness.NewEngine(1), r.Version, r.Options, r.Schedule, r.Run)
	if err != nil {
		return res, nil, err
	}
	return res, Check(&res, invs), nil
}

// entryJSON is Entry's wire form: durations as strings ("1m30s"), fault
// classes by name, so repro files are hand-editable.
type entryJSON struct {
	At        string  `json:"at"`
	Fault     string  `json:"fault"`
	Component int     `json:"component"`
	Duration  string  `json:"duration"`
	FlapOn    string  `json:"flap_on,omitempty"`
	FlapOff   string  `json:"flap_off,omitempty"`
	Severity  float64 `json:"severity,omitempty"` // schema 2: gray intensity
	Group     int     `json:"group,omitempty"`    // schema 2: correlated-event tag
}

// MarshalJSON renders the entry in its human-editable wire form.
func (e Entry) MarshalJSON() ([]byte, error) {
	j := entryJSON{
		At:        e.At.String(),
		Fault:     e.Fault.String(),
		Component: e.Component,
		Duration:  e.Duration.String(),
		Severity:  e.Severity,
		Group:     e.Group,
	}
	if e.Flapping() {
		j.FlapOn = e.FlapOn.String()
		j.FlapOff = e.FlapOff.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the wire form back.
func (e *Entry) UnmarshalJSON(data []byte) error {
	var j entryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	parse := func(s string) (time.Duration, error) {
		if s == "" {
			return 0, nil
		}
		return time.ParseDuration(s)
	}
	var err error
	if e.At, err = parse(j.At); err != nil {
		return fmt.Errorf("chaos: entry at: %w", err)
	}
	if e.Fault, err = faults.ParseType(j.Fault); err != nil {
		return err
	}
	e.Component = j.Component
	if e.Duration, err = parse(j.Duration); err != nil {
		return fmt.Errorf("chaos: entry duration: %w", err)
	}
	if e.FlapOn, err = parse(j.FlapOn); err != nil {
		return fmt.Errorf("chaos: entry flap_on: %w", err)
	}
	if e.FlapOff, err = parse(j.FlapOff); err != nil {
		return fmt.Errorf("chaos: entry flap_off: %w", err)
	}
	e.Severity = j.Severity
	e.Group = j.Group
	return nil
}
