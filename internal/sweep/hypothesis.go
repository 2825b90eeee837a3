package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Verdict is the evaluated outcome of one declared hypothesis: pass/fail
// plus the quantities the detector computed and the keys of the rows that
// support the decision.  Verdicts are a pure function of (spec, rows), so
// the golden tests pin them byte for byte.
type Verdict struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Pass       bool     `json:"pass"`
	CrossoverN int      `json:"crossover_n,omitempty"` // crossover: smallest n from which subject wins
	Spread     float64  `json:"spread,omitempty"`      // stability: worst relative spread observed
	WorstRatio float64  `json:"worst_ratio,omitempty"` // survivability: worst subject/baseline ratio observed
	Detail     string   `json:"detail"`
	Rows       []string `json:"rows,omitempty"` // supporting row keys, sorted
}

func (v Verdict) String() string {
	status := "FAIL"
	if v.Pass {
		status = "PASS"
	}
	return fmt.Sprintf("%-4s %-9s %s: %s", status, v.Kind, v.Name, v.Detail)
}

// Evaluate runs every declared hypothesis against the measured rows and
// returns one verdict per hypothesis, in declaration order.  Data-level
// problems (missing rows, a metric level the machine does not have, errored
// runs in the supporting set) fail the verdict with a diagnostic detail
// rather than erroring out: a sweep report should always render.
func Evaluate(spec *Spec, rows []Row) []Verdict {
	verdicts := make([]Verdict, 0, len(spec.Hypotheses))
	for _, h := range spec.Hypotheses {
		switch h.Kind {
		case "crossover":
			verdicts = append(verdicts, evalCrossover(spec, h, rows))
		case "stability":
			verdicts = append(verdicts, evalStability(spec, h, rows))
		case "survivability":
			verdicts = append(verdicts, evalSurvivability(spec, h, rows))
		default:
			verdicts = append(verdicts, Verdict{
				Name: h.Name, Kind: h.Kind,
				Detail: fmt.Sprintf("unknown hypothesis kind %q", h.Kind),
			})
		}
	}
	return verdicts
}

// seriesOver averages the metric across the seed axis for every size with
// at least one matching non-error row, returning size → mean and the keys
// of the contributing rows.
func seriesOver(sel Selector, m metricSel, rows []Row) (map[int]float64, []string, error) {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	var keys []string
	for _, r := range rows {
		if !sel.matches(r.Config) {
			continue
		}
		if r.Err != "" {
			return nil, nil, fmt.Errorf("supporting row %s errored: %s", r.Key(), r.Err)
		}
		v, err := m.valueOf(r)
		if err != nil {
			return nil, nil, err
		}
		sum[r.N] += v
		cnt[r.N]++
		keys = append(keys, r.Key())
	}
	mean := make(map[int]float64, len(sum))
	//oblivcheck:allow determinism: aggregation only — every consumer iterates the size axis in sorted order
	for n, s := range sum {
		mean[n] = s / float64(cnt[n])
	}
	sort.Strings(keys)
	return mean, keys, nil
}

// pairedSeries is the common head of the hypotheses that compare a subject
// series against a baseline: it parses the metric, averages both series
// over the seed axis and returns the grid sizes both cover, ascending, with
// v.Rows set to the supporting row keys.  On failure it returns no sizes
// and v.Detail says why.
func pairedSeries(spec *Spec, h Hypothesis, rows []Row, v *Verdict) (subj, base map[int]float64, sizes []int) {
	m, err := parseMetric(h.Metric)
	if err != nil {
		v.Detail = err.Error()
		return nil, nil, nil
	}
	subj, subjKeys, err := seriesOver(h.Subject, m, rows)
	if err != nil {
		v.Detail = fmt.Sprintf("subject %s: %v", h.Subject, err)
		return nil, nil, nil
	}
	base, baseKeys, err := seriesOver(h.Baseline, m, rows)
	if err != nil {
		v.Detail = fmt.Sprintf("baseline %s: %v", h.Baseline, err)
		return nil, nil, nil
	}
	for _, n := range spec.Sizes {
		_, inS := subj[n]
		_, inB := base[n]
		if inS && inB {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		v.Detail = fmt.Sprintf("no sizes with both subject (%s) and baseline (%s) rows", h.Subject, h.Baseline)
		return nil, nil, nil
	}
	sort.Ints(sizes)
	v.Rows = append(subjKeys, baseKeys...)
	sort.Strings(v.Rows)
	return subj, base, sizes
}

// evalCrossover finds the smallest grid size at and above which the
// baseline/subject metric ratio stays >= MinRatio — the point where the
// subject schedule starts (and keeps) winning.  The hypothesis passes iff
// that crossover exists and sits at or below AtOrBelowN (any crossover
// passes when AtOrBelowN is 0).
func evalCrossover(spec *Spec, h Hypothesis, rows []Row) Verdict {
	v := Verdict{Name: h.Name, Kind: h.Kind}
	subj, base, sizes := pairedSeries(spec, h, rows, &v)
	if sizes == nil {
		return v
	}

	ratio := func(n int) float64 {
		s := subj[n]
		if s <= 0 {
			s = 1 // count metrics: a zero-cost subject wins at any baseline
		}
		return base[n] / s
	}
	// Walk sizes descending: the crossover is the lowest size of the
	// maximal winning suffix.
	crossover := 0
	for i := len(sizes) - 1; i >= 0; i-- {
		if ratio(sizes[i]) < h.MinRatio {
			break
		}
		crossover = sizes[i]
	}
	var parts []string
	for _, n := range sizes {
		parts = append(parts, fmt.Sprintf("n=%d %.2f", n, ratio(n)))
	}
	desc := fmt.Sprintf("%s baseline/subject on %s: %s", h.Metric, h.Subject, strings.Join(parts, ", "))
	switch {
	case crossover == 0:
		v.Detail = fmt.Sprintf("%s — no crossover: ratio < %.2f at the largest size", desc, h.MinRatio)
	case h.AtOrBelowN > 0 && crossover > h.AtOrBelowN:
		v.CrossoverN = crossover
		v.Detail = fmt.Sprintf("%s — crossover at n=%d, above the declared bound n=%d", desc, crossover, h.AtOrBelowN)
	default:
		v.Pass = true
		v.CrossoverN = crossover
		v.Detail = fmt.Sprintf("%s — subject sustains ratio >= %.2f from n=%d", desc, h.MinRatio, crossover)
	}
	return v
}

// evalSurvivability checks graceful degradation: at every size with both a
// failure-injected subject and a healthy baseline row, the subject/baseline
// metric ratio must stay <= MaxRatio, and (when MinDead > 0) every subject
// row must report at least MinDead dead cores — the second clause rejects a
// vacuous pass where the failure schedule never fired within the run.
func evalSurvivability(spec *Spec, h Hypothesis, rows []Row) Verdict {
	v := Verdict{Name: h.Name, Kind: h.Kind}
	subj, base, sizes := pairedSeries(spec, h, rows, &v)
	if sizes == nil {
		return v
	}

	worst, worstN := 0.0, 0
	var parts []string
	for _, n := range sizes {
		b := base[n]
		if b <= 0 {
			b = 1 // count metrics: a zero-cost baseline still bounds the ratio
		}
		r := subj[n] / b
		parts = append(parts, fmt.Sprintf("n=%d %.2f", n, r))
		if r > worst {
			worst, worstN = r, n
		}
	}
	v.WorstRatio = worst
	desc := fmt.Sprintf("%s subject/baseline on %s: %s", h.Metric, h.Subject, strings.Join(parts, ", "))

	if h.MinDead > 0 {
		checked := 0
		for _, r := range rows {
			if !h.Subject.matches(r.Config) {
				continue
			}
			checked++
			if r.DeadCores < h.MinDead {
				v.Detail = fmt.Sprintf("%s — subject row %s lost %d core(s), need >= %d: the failure plan never fired",
					desc, r.Key(), r.DeadCores, h.MinDead)
				return v
			}
		}
		if checked == 0 {
			v.Detail = fmt.Sprintf("subject %s matched no rows", h.Subject)
			return v
		}
	}
	if worst > h.MaxRatio {
		v.Detail = fmt.Sprintf("%s — degradation %.2f at n=%d exceeds max_ratio %.2f", desc, worst, worstN, h.MaxRatio)
		return v
	}
	v.Pass = true
	v.Detail = fmt.Sprintf("%s — degradation <= %.2f at every size (worst %.2f at n=%d)", desc, h.MaxRatio, worst, worstN)
	return v
}

// evalStability checks that the metric's relative spread across the seed
// axis stays within Epsilon for every (algo, machine, n, options) group
// matched by the filter.  Spread is (max-min)/mean — zero when chaos
// perturbation leaves the metric untouched.
func evalStability(spec *Spec, h Hypothesis, rows []Row) Verdict {
	v := Verdict{Name: h.Name, Kind: h.Kind}
	m, err := parseMetric(h.Metric)
	if err != nil {
		v.Detail = err.Error()
		return v
	}
	type group struct {
		key  string
		vals []float64
	}
	byKey := make(map[string]*group)
	var order []string // group keys in row (= grid) order
	var keys []string
	for _, r := range rows {
		if !h.Filter.matches(r.Config) {
			continue
		}
		if r.Err != "" {
			v.Detail = fmt.Sprintf("supporting row %s errored: %s", r.Key(), r.Err)
			return v
		}
		val, err := m.valueOf(r)
		if err != nil {
			v.Detail = err.Error()
			return v
		}
		gk := fmt.Sprintf("%s/%s/n%d/%s", r.Algo, r.Machine, r.N, r.Options)
		g, ok := byKey[gk]
		if !ok {
			g = &group{key: gk}
			byKey[gk] = g
			order = append(order, gk)
		}
		g.vals = append(g.vals, val)
		keys = append(keys, r.Key())
	}
	if len(order) == 0 {
		v.Detail = fmt.Sprintf("filter %s matched no rows", h.Filter)
		return v
	}
	worst, worstKey := -1.0, ""
	short := ""
	for _, gk := range order {
		g := byKey[gk]
		if len(g.vals) < 2 {
			short = gk
			continue
		}
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, x := range g.vals {
			lo, hi, sum = math.Min(lo, x), math.Max(hi, x), sum+x
		}
		mean := sum / float64(len(g.vals))
		spread := 0.0
		if mean != 0 {
			spread = (hi - lo) / mean
		} else if hi != lo {
			spread = math.Inf(1)
		}
		if spread > worst {
			worst, worstKey = spread, gk
		}
	}
	if worst < 0 {
		v.Detail = fmt.Sprintf("group %s has a single seed; stability needs the seed axis (%d declared)", short, len(spec.Seeds))
		return v
	}
	sort.Strings(keys)
	v.Rows = keys
	v.Spread = worst
	if worst <= h.Epsilon {
		v.Pass = true
		v.Detail = fmt.Sprintf("%s spread across %d seeds <= %.4f on every group (worst %.4f at %s)",
			h.Metric, len(spec.Seeds), h.Epsilon, worst, worstKey)
	} else {
		v.Detail = fmt.Sprintf("%s spread %.4f at %s exceeds epsilon %.4f", h.Metric, worst, worstKey, h.Epsilon)
	}
	return v
}
