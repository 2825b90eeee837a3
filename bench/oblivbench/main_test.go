package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// toy runs every code path of the benchmark in a few seconds.
var toy = sizes{
	scanN:      1 << 10,
	mmSide:     16,
	lrN:        256,
	gridSpec:   []byte(`{"algos":["scan","mm"],"machines":["mc3"],"sizes":[64],"options":["default","flat"]}`),
	probeWords: 1 << 10,
}

// benchmarkJSON is the schema of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nwant %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n got %+v\nwant %+v", bj.PerLayer, perLayer)
	}
	ws := workloads(full)
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
}

func metricNames(ds []metricDecl) []string {
	var names []string
	for _, d := range ds {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsSmoke runs every workload untraced and traced at toy sizes:
// every op must pass its checks, and the emitted metric names must be
// exactly the ones BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads(toy) {
		for trace, want := range map[string][]string{"0": metricNames(bj.EndToEnd), "1": metricNames(bj.PerLayer)} {
			var out bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "2", "--seconds", "0", "--trace", trace}, &out, toy)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v\n%s", w.name, trace, err, out.String())
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, result %+v", w.name, trace, code, res)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%s emitted metrics\n %v\nwant\n %v", w.name, trace, got, want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"oblivhm/internal/hm.(*Machine).access", "/src/internal/hm/machine.go", "hm.walk"},
		{"oblivhm/internal/hm.(*parSim).workerLoop", "/src/internal/hm/parsim.go", "hm.par"},
		{"oblivhm/internal/core.(*Ctx).LoadU", "/src/internal/core/ctx.go", "core.ctx"},
		{"oblivhm/internal/core.(*engine).speculate", "/src/internal/core/parround.go", "core.parround"},
		{"oblivhm/internal/core.(*engine).loop", "/src/internal/core/engine.go", "core.engine"},
		{"oblivhm/internal/gep.igepCall.funcD", "/src/internal/gep/igep.go", "algo"},
		{"oblivhm/internal/sweep.Run.func1", "/src/internal/sweep/runner.go", "sweep"},
		{"main.setupScan.func1", "/src/bench/oblivbench/workloads.go", "bench"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"internal/runtime/atomic.Load", "/go/src/internal/runtime/atomic/atomic.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "sim_maccess_per_s", Unit: "M/s", Better: "higher", Bound: 0.1}
	steady := []float64{1, 1.01, 0.99, 1, 1.02, 0.98}
	for _, c := range []struct {
		d          metricDecl
		base, next []float64
		want       string
	}{
		{lower, steady, steady, "ok"},
		{lower, steady, []float64{1.2, 1.21, 1.19, 1.2}, "regressed"},
		{lower, steady, []float64{0.8, 0.81, 0.79, 0.8}, "improved"},
		{higher, steady, []float64{0.8, 0.81, 0.79, 0.8}, "regressed"},
		{lower, steady, []float64{1, 1.5, 0.7, 1.3, 0.8}, "unresolved"},
		{lower, []float64{1, 1.5, 1.2, 1.4}, []float64{0.5, 0.9, 0.6, 0.8}, "improved"},
	} {
		if got := judge(c.d, c.base, c.next).verdict; got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.base, c.next, got, c.want)
		}
	}
}

func TestCompareFlagsCountChanges(t *testing.T) {
	rec := func(trace int, v float64) record {
		return record{Workload: "scan-stream", Seed: 1, Trace: trace, result: result{Correct: true, Metrics: map[string]metricValue{
			"run_s_p50": {Value: 1, Unit: "s"}, "hm.accesses": {Value: v, Unit: "count"},
		}}}
	}
	var out bytes.Buffer
	if code := compareRecords([]record{rec(0, 0), rec(1, 100)}, []record{rec(0, 0), rec(1, 100)}, &out); code != 0 {
		t.Errorf("identical runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords([]record{rec(1, 100)}, []record{rec(1, 101)}, &out); code != 1 || !strings.Contains(out.String(), "hm.accesses differs") {
		t.Errorf("changed count: exit %d\n%s", code, out.String())
	}
}
