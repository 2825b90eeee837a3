// Package sweep turns the deterministic simulator into a controlled-
// experiment engine.  A Spec declares a grid of (algorithm, machine,
// input size, chaos seed, engine-option) configurations plus optional
// hypotheses — machine-checkable predictions over the measured metrics.
// The runner expands the grid, fans the runs out across worker goroutines
// (each run is an independent deterministic simulation, so the fan-out is
// embarrassingly parallel; within a run only the hm cache walk may take a
// further CPU, and only one no worker is using), puts each run's row in
// its grid cell's slot, and streams the slots to JSONL in grid order
// regardless of worker count: the engine's determinism contract (same
// config + seed → byte-identical metrics) extends to the sweep layer byte
// for byte.
//
// Hypotheses come in three kinds, all grounded in the paper's comparative
// claims:
//
//   - "crossover": a subject schedule beats a baseline schedule on a metric
//     at and above some input size (e.g. SB beats the flat proportionate
//     slice on hm4 once the working set spills the shared caches — the E13
//     ablation, and Cole–Ramachandran's space-bounded scheduler bounds);
//   - "stability": a metric is stable within ε across chaos seeds (the
//     robustness half of the determinism contract: schedule perturbation
//     must not move the cache-complexity envelope);
//   - "survivability": a failure-injected schedule degrades gracefully —
//     the degraded/healthy metric ratio stays within a declared bound while
//     the failure plan verifiably fired (e.g. SB loses < 2x makespan at one
//     dead core of 8).
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
)

// Spec declares a sweep: one value list per grid axis, plus optional
// hypotheses evaluated over the measured rows.  Axes left empty default to
// a single neutral value (Seeds → [0] = chaos off, Options → ["default"]).
type Spec struct {
	Name     string   `json:"name,omitempty"`
	Algos    []string `json:"algos"`
	Machines []string `json:"machines"`
	Sizes    []int    `json:"sizes"`
	Seeds    []int64  `json:"seeds,omitempty"`
	Options  []string `json:"options,omitempty"`

	Hypotheses []Hypothesis `json:"hypotheses,omitempty"`
}

// Hypothesis is one declared prediction.  Kind selects the detector and
// which of the remaining fields apply:
//
//   - "crossover": Subject and Baseline select two schedules sharing the
//     size axis; the detector finds the smallest grid size at and above
//     which baseline/subject ≥ MinRatio on Metric, and the hypothesis
//     passes iff that crossover exists and sits at or below AtOrBelowN.
//   - "stability": Filter selects rows; within every (algo, machine, n,
//     options) group the relative spread of Metric across the seed axis
//     must stay ≤ Epsilon.
//   - "survivability": Subject selects a failure-injected schedule, Baseline
//     its healthy counterpart; the degraded subject/baseline Metric ratio
//     must stay ≤ MaxRatio at every shared size, and (when MinDead > 0)
//     every subject row must have lost at least MinDead cores, proving the
//     failures actually fired.
type Hypothesis struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`   // "crossover" | "stability" | "survivability"
	Metric string `json:"metric"` // "steps" | "work" | "steals" | "dead_cores" | "migrated" | "reexec" | "reexec_frac" | "misses.L<k>" | "ratio.L<k>"

	// crossover fields.
	Subject    Selector `json:"subject,omitempty"`
	Baseline   Selector `json:"baseline,omitempty"`
	MinRatio   float64  `json:"min_ratio,omitempty"`
	AtOrBelowN int      `json:"at_or_below_n,omitempty"`

	// stability fields.
	Filter  Selector `json:"filter,omitempty"`
	Epsilon float64  `json:"epsilon,omitempty"`

	// survivability fields (Subject and Baseline as for crossover).
	MaxRatio float64 `json:"max_ratio,omitempty"`
	MinDead  int     `json:"min_dead,omitempty"`
}

// Selector picks rows out of the grid.  Empty fields match any value;
// Options selects the "default" set explicitly by name (the empty string
// means "any", as for the other fields).
type Selector struct {
	Algo    string `json:"algo,omitempty"`
	Machine string `json:"machine,omitempty"`
	Options string `json:"options,omitempty"`
}

func (s Selector) matches(c Config) bool {
	if s.Algo != "" && s.Algo != c.Algo {
		return false
	}
	if s.Machine != "" && s.Machine != c.Machine {
		return false
	}
	if s.Options != "" && s.Options != c.Options {
		return false
	}
	return true
}

func (s Selector) String() string {
	var parts []string
	if s.Algo != "" {
		parts = append(parts, "algo="+s.Algo)
	}
	if s.Machine != "" {
		parts = append(parts, "machine="+s.Machine)
	}
	if s.Options != "" {
		parts = append(parts, "options="+s.Options)
	}
	if len(parts) == 0 {
		return "(any)"
	}
	return strings.Join(parts, " ")
}

// SpecError is the typed validation failure: Field names the offending
// spec field (with an index for axis entries, e.g. "algos[2]"), Msg says
// what is wrong with it.  Parse and Validate return nothing else, so spec
// authors always get a field to fix and fuzzing can assert the error
// contract.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string { return "sweep spec: " + e.Field + ": " + e.Msg }

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Parse decodes and validates a JSON spec.  Unknown fields are rejected
// (they are almost always typos of axis names) and every failure is a
// *SpecError naming the offending field.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, jsonSpecError(err)
	}
	// Trailing garbage after the spec object is a malformed file, not an
	// extended one.
	if dec.More() {
		return nil, specErrf("json", "trailing data after spec object")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// jsonSpecError maps an encoding/json failure onto the SpecError contract,
// extracting the offending field name when the decoder reports one.
func jsonSpecError(err error) *SpecError {
	msg := err.Error()
	if name, ok := strings.CutPrefix(msg, "json: unknown field "); ok {
		if name = strings.Trim(name, "\""); name == "" {
			return specErrf("json", "unknown field with empty name")
		}
		return specErrf(name, "unknown field")
	}
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		return specErrf(ute.Field, "want %s, got JSON %s", ute.Type, ute.Value)
	}
	return specErrf("json", "malformed spec: %s", msg)
}

// Validate normalizes the spec in place (defaulting the seed and option
// axes) and checks every axis value and hypothesis, returning a *SpecError
// naming the first offending field.  A validated spec expands to a
// duplicate-free grid: per-axis uniqueness makes the cartesian product
// unique.
func (s *Spec) Validate() error {
	s.normalize()

	if len(s.Algos) == 0 {
		return specErrf("algos", "empty axis: at least one algorithm is required")
	}
	known := make(map[string]bool)
	for _, a := range harness.MOAlgos() {
		known[a] = true
	}
	if err := uniqueStrings("algos", s.Algos, func(i int, v string) error {
		if !known[v] {
			return specErrf(field("algos", i), "unknown algorithm %q (have %s)", v, strings.Join(harness.MOAlgos(), ", "))
		}
		return nil
	}); err != nil {
		return err
	}

	if len(s.Machines) == 0 {
		return specErrf("machines", "empty axis: at least one machine preset is required")
	}
	presets := hm.Presets()
	if err := uniqueStrings("machines", s.Machines, func(i int, v string) error {
		if _, ok := presets[v]; !ok {
			return specErrf(field("machines", i), "unknown machine preset %q (have %s)", v, strings.Join(hm.PresetNames(), ", "))
		}
		return nil
	}); err != nil {
		return err
	}

	if len(s.Sizes) == 0 {
		return specErrf("sizes", "empty axis: at least one input size is required")
	}
	seenN := make(map[int]bool)
	for i, n := range s.Sizes {
		if n <= 0 {
			return specErrf(field("sizes", i), "input size must be positive, got %d", n)
		}
		if seenN[n] {
			return specErrf(field("sizes", i), "duplicate value %d", n)
		}
		seenN[n] = true
	}

	seenSeed := make(map[int64]bool)
	for i, sd := range s.Seeds {
		if seenSeed[sd] {
			return specErrf(field("seeds", i), "duplicate value %d", sd)
		}
		seenSeed[sd] = true
	}

	if err := uniqueStrings("options", s.Options, func(i int, v string) error {
		if _, err := harness.OptionSet(v); err != nil {
			return specErrf(field("options", i), "%v", err)
		}
		return nil
	}); err != nil {
		return err
	}

	for i := range s.Hypotheses {
		if err := s.validateHypothesis(i); err != nil {
			return err
		}
	}
	return nil
}

// normalize fills defaulted axes and canonicalizes option-set names so the
// grid key of a config never depends on spelling ("" vs "default").
func (s *Spec) normalize() {
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{0}
	}
	if len(s.Options) == 0 {
		s.Options = []string{"default"}
	}
	for i, o := range s.Options {
		if o == "" {
			s.Options[i] = "default"
		}
	}
}

func (s *Spec) validateHypothesis(i int) error {
	h := &s.Hypotheses[i]
	hf := func(sub string) string { return fmt.Sprintf("hypotheses[%d].%s", i, sub) }
	if h.Name == "" {
		return specErrf(hf("name"), "hypothesis needs a name")
	}
	if _, err := parseMetric(h.Metric); err != nil {
		return specErrf(hf("metric"), "%v", err)
	}
	switch h.Kind {
	case "crossover":
		if h.MinRatio <= 0 {
			return specErrf(hf("min_ratio"), "crossover needs min_ratio > 0, got %g", h.MinRatio)
		}
		if h.AtOrBelowN < 0 {
			return specErrf(hf("at_or_below_n"), "must be >= 0, got %d", h.AtOrBelowN)
		}
	case "survivability":
		if h.MaxRatio <= 0 {
			return specErrf(hf("max_ratio"), "survivability needs max_ratio > 0, got %g", h.MaxRatio)
		}
		if h.MinDead < 0 {
			return specErrf(hf("min_dead"), "must be >= 0, got %d", h.MinDead)
		}
	case "stability":
		if h.Epsilon <= 0 {
			return specErrf(hf("epsilon"), "stability needs epsilon > 0, got %g", h.Epsilon)
		}
		if len(s.Seeds) < 2 {
			return specErrf(hf("kind"), "stability compares across seeds; spec declares %d seed(s), need >= 2", len(s.Seeds))
		}
		return s.checkSelector(hf("filter"), h.Filter)
	default:
		return specErrf(hf("kind"), "unknown kind %q (have crossover, stability, survivability)", h.Kind)
	}
	// crossover and survivability pair a subject series with a baseline.
	for _, sel := range []struct {
		name string
		s    Selector
	}{{"subject", h.Subject}, {"baseline", h.Baseline}} {
		if sel.s.Algo == "" {
			return specErrf(hf(sel.name+".algo"), "%s selectors must pin an algorithm", h.Kind)
		}
		if err := s.checkSelector(hf(sel.name), sel.s); err != nil {
			return err
		}
		if len(s.Machines) > 1 && sel.s.Machine == "" {
			return specErrf(hf(sel.name+".machine"), "spec sweeps %d machines; %s selectors must pin one", len(s.Machines), h.Kind)
		}
	}
	if h.Subject == h.Baseline {
		return specErrf(hf("baseline"), "subject and baseline select the same rows (%s)", h.Subject)
	}
	return nil
}

// checkSelector rejects selectors that can never match the declared axes —
// a silent empty match would make a hypothesis vacuously fail at evaluation
// time with a far less helpful message.
func (s *Spec) checkSelector(fieldName string, sel Selector) error {
	if sel.Algo != "" && !slices.Contains(s.Algos, sel.Algo) {
		return specErrf(fieldName+".algo", "%q is not on the algos axis %v", sel.Algo, s.Algos)
	}
	if sel.Machine != "" && !slices.Contains(s.Machines, sel.Machine) {
		return specErrf(fieldName+".machine", "%q is not on the machines axis %v", sel.Machine, s.Machines)
	}
	if sel.Options != "" && !slices.Contains(s.Options, sel.Options) {
		return specErrf(fieldName+".options", "%q is not on the options axis %v", sel.Options, s.Options)
	}
	return nil
}

// ---- metric selectors ----

// metricSel is a parsed metric name: a scalar counter or a per-level
// series indexed by cache level.
type metricSel struct {
	kind  string // "steps" | "work" | "steals" | "dead_cores" | "migrated" | "reexec" | "reexec_frac" | "misses" | "ratio"
	level int    // 1-based cache level for misses/ratio
}

func (m metricSel) String() string {
	if m.level > 0 {
		return fmt.Sprintf("%s.L%d", m.kind, m.level)
	}
	return m.kind
}

// parseMetric parses "steps", "work", "steals", the degraded-mode counters
// "dead_cores", "migrated", "reexec", "reexec_frac", or the per-level series
// "misses.L<k>" / "ratio.L<k>" (k >= 1; misses is the per-level max miss
// count, ratio the measured/predicted Table II ratio).
func parseMetric(s string) (metricSel, error) {
	switch s {
	case "steps", "work", "steals", "dead_cores", "migrated", "reexec", "reexec_frac":
		return metricSel{kind: s}, nil
	case "":
		return metricSel{}, fmt.Errorf("empty metric (want steps, work, steals, dead_cores, migrated, reexec, reexec_frac, misses.L<k> or ratio.L<k>)")
	}
	kind, lvl, ok := strings.Cut(s, ".L")
	if ok && (kind == "misses" || kind == "ratio") {
		k, err := strconv.Atoi(lvl)
		if err == nil && k >= 1 {
			return metricSel{kind: kind, level: k}, nil
		}
	}
	return metricSel{}, fmt.Errorf("bad metric %q (want steps, work, steals, dead_cores, migrated, reexec, reexec_frac, misses.L<k> or ratio.L<k>)", s)
}

// valueOf extracts the metric from a measured row.
func (m metricSel) valueOf(r Row) (float64, error) {
	switch m.kind {
	case "steps":
		return float64(r.Steps), nil
	case "work":
		return float64(r.Work), nil
	case "steals":
		return float64(r.Steals), nil
	case "dead_cores":
		return float64(r.DeadCores), nil
	case "migrated":
		return float64(r.Migrated), nil
	case "reexec":
		return float64(r.Reexec), nil
	case "reexec_frac":
		return r.ReexecFrac, nil
	case "misses", "ratio":
		if m.level < 1 || m.level > len(r.Levels) {
			return 0, fmt.Errorf("metric %s: row %s has cache levels 1..%d", m, r.Key(), len(r.Levels))
		}
		l := r.Levels[m.level-1]
		if m.kind == "misses" {
			return float64(l.MaxMisses), nil
		}
		return l.Ratio, nil
	}
	return 0, fmt.Errorf("unknown metric kind %q", m.kind)
}

// ---- small helpers ----

func field(axis string, i int) string { return fmt.Sprintf("%s[%d]", axis, i) }

func uniqueStrings(axis string, vals []string, check func(int, string) error) error {
	seen := make(map[string]bool)
	for i, v := range vals {
		if err := check(i, v); err != nil {
			return err
		}
		if seen[v] {
			return specErrf(field(axis, i), "duplicate value %q", v)
		}
		seen[v] = true
	}
	return nil
}
