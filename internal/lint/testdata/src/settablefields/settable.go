// Package settablefields is the settable-fields fixture, checked with a
// bound of 4: the fifth exported field of an exported *Config, *Options,
// CostModel or EpisodeSchedule struct carries the finding, and the
// message's total says that the last two count too.
package settablefields

import "time"

// Config's exported fields are settings: three.
type Config struct {
	Nodes  int
	Period time.Duration
	Seed   int64
	cache  int // unexported: not a setting
}

// Stats is not a settings type, whatever its fields.
type Stats struct {
	Served int
}

// localConfig is unexported: nothing outside the package sets it.
type localConfig struct {
	Hidden int
}

// AliasConfig names Config again; its fields are Config's.
type AliasConfig = Config

// ModeConfig is not a struct.
type ModeConfig int

type RunOptions struct {
	Rate    float64
	Workers int // want `Workers is settable config field 5 of 7, bound 4`
}

type EpisodeSchedule struct {
	Warmup time.Duration
}

type CostModel struct {
	Accept time.Duration
}

var _ = localConfig{}
