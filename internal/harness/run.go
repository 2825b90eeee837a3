package harness

// Programmatic run entry shared by every experiment driver.  cmd/tables,
// cmd/sweep and the internal/sweep runner all funnel through Run, so a
// sweep row, a table cell and a golden snapshot are guaranteed to be the
// same measurement: one cold run of (algo, machine, n) under a named
// engine-option set and an optional chaos seed.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"oblivhm/internal/core"
)

// RunConfig identifies one simulated experiment — the cell of a sweep grid.
// The zero Seed means chaos off; any other value runs the workload under
// the deterministic fault injector with that seed (core.WithChaos).  Its
// JSON field names are the row schema of the sweep's JSONL output.
type RunConfig struct {
	Algo    string `json:"algo"`
	Machine string `json:"machine"`
	N       int    `json:"n"`
	Options string `json:"options"` // named engine-option set, see OptionSet
	Seed    int64  `json:"seed"`    // chaos seed; 0 = chaos off
}

// Key is the canonical human-readable identity of a config.  It is the
// stable sort/dedup key of the sweep layer: resume matching, hypothesis
// supporting-row lists and test assertions all speak in keys.
func (c RunConfig) Key() string {
	return fmt.Sprintf("%s/%s/n%d/%s/s%d", c.Algo, c.Machine, c.N, c.Options, c.Seed)
}

// Hash is the config's FNV-1a identity as stored in sweep output rows;
// resumed sweeps skip configs whose hash is already present in the output
// file.
func (c RunConfig) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(c.Key()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// optionSets are the named engine-option bundles an experiment can select.
// The names are part of the determinism contract surface: golden snapshots
// (golden_test.go), sweep specs and CHANGES-visible CLIs all refer to
// schedules by these names, so entries are append-only: a name whose
// backend is removed stays, mapped to the schedule it always produced.
// That is why the names of the removed replay (DESIGN.md §8) and
// parallel-rounds (§11) backends resolve to the serial engine: par*, pr*
// and pr*par* to default, pr4steal to steal.
var optionSets = map[string]func() []core.Opt{
	"default":  func() []core.Opt { return nil },
	"steal":    func() []core.Opt { return []core.Opt{core.WithStealing()} },
	"flat":     func() []core.Opt { return []core.Opt{core.WithFlatScheduler()} },
	"q8":       func() []core.Opt { return []core.Opt{core.WithQuantum(8)} },
	"par2":     func() []core.Opt { return nil },
	"par4":     func() []core.Opt { return nil },
	"pr2":      func() []core.Opt { return nil },
	"pr4":      func() []core.Opt { return nil },
	"pr2par2":  func() []core.Opt { return nil },
	"pr4par4":  func() []core.Opt { return nil },
	"pr4steal": func() []core.Opt { return []core.Opt{core.WithStealing()} },

	// Failure-injection sets (PR 8).  Each carries a watchdog so a workload
	// whose restartability assumption breaks down livelocks into a typed
	// *core.FailureError rather than a hang; the failure seed is part of the
	// name's frozen schedule (the per-run chaos Seed stays independent).
	"failstop1": func() []core.Opt {
		return []core.Opt{
			core.WithFailures(1, core.FailurePlan{KillCores: 1}),
			core.WithWatchdog(1 << 20),
		}
	},
	"straggler2x": func() []core.Opt {
		return []core.Opt{
			core.WithFailures(2, core.FailurePlan{Stragglers: 2, SlowFactor: 2}),
			core.WithWatchdog(1 << 20),
		}
	},
	"faulty": func() []core.Opt {
		return []core.Opt{
			core.WithFailures(3, core.FailurePlan{KillCores: 1, Stragglers: 1, SlowFactor: 2, CacheFaults: 4}),
			core.WithWatchdog(1 << 20),
		}
	},
}

// OptionSets lists the valid option-set names, sorted.
func OptionSets() []string {
	var names []string
	//oblivcheck:allow determinism: key collection for a name listing — sorted below
	for n := range optionSets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OptionSet resolves a named engine-option set.  The empty name is a
// synonym for "default" (no options), so callers that leave the field
// blank get the stock CGC⇒SB schedule.
func OptionSet(name string) ([]core.Opt, error) {
	if name == "" {
		name = "default"
	}
	mk, ok := optionSets[name]
	if !ok {
		return nil, fmt.Errorf("unknown option set %q (have %s)", name, strings.Join(OptionSets(), ", "))
	}
	return mk(), nil
}

// Run executes the configured workload cold on the named machine and
// returns the measured metrics.  It is a pure function of its argument:
// same RunConfig, byte-identical MOResult (the engine's frozen determinism
// contract, extended to named option sets and chaos seeds).
func Run(cfg RunConfig) (MOResult, error) {
	opts, err := OptionSet(cfg.Options)
	if err != nil {
		return MOResult{}, err
	}
	if cfg.Seed != 0 {
		opts = append(opts, core.WithChaos(cfg.Seed))
	}
	return RunMO(cfg.Algo, cfg.Machine, cfg.N, opts...)
}
