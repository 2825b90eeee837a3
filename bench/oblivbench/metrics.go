package main

import (
	"math"
	"sort"
)

// metricDecl is one declared metric, in the schema of BENCHMARK.json.
// Bound is set only for end-to-end metrics: the share of the baseline
// median by which the metric may worsen before it counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the simulator sees, measured with
// tracing off.  The test keeps BENCHMARK.json in step with this list.  The
// timing bounds are as wide as BENCHMARK.json allows because the spread
// between runs on the reference host reaches 13% (README.md, "Host noise").
var endToEnd = []metricDecl{
	{"sim_maccess_per_s", "M/s", "higher", 0.25},
	{"run_s_p50", "s", "lower", 0.25},
	{"pr2_run_s_p50", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
}

// layers are the simulator's modules a CPU-profile sample can land in (see
// layerOf for the attribution rule).
var layers = []string{
	"hm.walk", "hm.par", "core.ctx", "core.parround", "core.engine",
	"algo", "harness", "sweep", "runtime", "bench",
}

// countMetrics are the simulated counts of one serial op.  They repeat
// exactly for a seed, so a change meant only to speed up the simulator must
// leave every one of them identical.
var countMetrics = []string{
	"hm.accesses",
	"hm.L1.max_misses", "hm.L2.max_misses", "hm.L3.max_misses",
	"hm.L1.total_misses", "hm.L2.total_misses", "hm.L3.total_misses",
	"hm.L1.invalidations", "hm.L2.invalidations", "hm.L3.invalidations",
	"core.vsteps", "core.steals",
	"core.placed.L1", "core.placed.L2", "core.placed.L3",
	"core.anchors", "core.chunks", "core.nested", "core.queued", "core.strands_done",
}

// perLayer lists the metrics of a traced run.
var perLayer = func() []metricDecl {
	var ds []metricDecl
	for _, l := range layers {
		ds = append(ds, metricDecl{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	for _, l := range layers {
		ds = append(ds, metricDecl{Name: l + ".share", Unit: "ratio", Better: "lower"})
	}
	for _, l := range layers {
		ds = append(ds, metricDecl{Name: "pr2." + l + ".self_s", Unit: "s", Better: "lower"})
	}
	ds = append(ds,
		metricDecl{"hm.ns_per_access", "ns", "lower", 0},
		metricDecl{"hm.l1_hit_ratio", "ratio", "higher", 0},
		metricDecl{"hm.probe.seq_ns", "ns", "lower", 0},
		metricDecl{"hm.probe.rand_ns", "ns", "lower", 0},
		metricDecl{"hm.par.par2_run_s", "s", "lower", 0},
		metricDecl{"hm.par.pr2par2_run_s", "s", "lower", 0},
		metricDecl{"core.engine.us_per_strand", "us", "lower", 0},
		metricDecl{"core.ctx.ns_per_access", "ns", "lower", 0},
		metricDecl{"core.probe.ns_per_vstep", "ns", "lower", 0},
		metricDecl{"core.probe.us_per_task", "us", "lower", 0},
		metricDecl{"sweep.w1_run_s", "s", "lower", 0},
		metricDecl{"sweep.speedup_w2", "ratio", "higher", 0},
		metricDecl{"runtime.gc_per_op", "count", "lower", 0},
		metricDecl{"span.warmup_s", "s", "lower", 0},
		metricDecl{"span.verify_s", "s", "lower", 0},
		metricDecl{"trace.overhead", "ratio", "lower", 0},
	)
	for _, c := range countMetrics {
		ds = append(ds, metricDecl{Name: c, Unit: "count", Better: "lower"})
	}
	return ds
}()

// sample is the measured values of one metric in one run.  A metric with a
// single measurement (a live-heap reading, a per-op rate) has one value.
type sample struct {
	value float64
	n     int // how many measurements value summarises
}

func one(v float64) sample { return sample{value: v, n: 1} }

func medianOf(xs []float64) sample { return sample{value: median(xs), n: len(xs)} }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so a spread printed here
// matches one computed from the same values there.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
