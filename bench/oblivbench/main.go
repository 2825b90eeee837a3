// Command oblivbench measures what the oblivhm simulator costs on the host:
// host seconds per simulated run, simulated accesses per host second, set-up
// time and heap, serial and under the parallel-rounds backend, on four
// workloads that stress different layers.  Every op's output is checked
// against a sequential Go reference, and every parallel op against the
// serial op on the same input.  A traced run (--trace 1) attributes CPU
// profiles to the simulator's layers and reports per-layer metrics.
//
//	oblivbench --workload scan-stream --seed 1 --seconds 20 --trace 0
//	oblivbench --seed 1 --out base.jsonl          # every workload in turn
//	oblivbench --compare base.jsonl new.jsonl
//
// The last line of standard output is the run's result as one JSON object.
// The exit code is 0 only if every op was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, full)) }

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an --out file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func run(args []string, stdout io.Writer, sz sizes) int {
	ws := workloads(sz)
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("oblivbench", flag.ContinueOnError)
	only := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all to run each in turn")
	seed := fs.Int64("seed", 1, "input seed: op i of a workload draws its inputs from seed+i")
	seconds := fs.Float64("seconds", 20, "how long one workload measures, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "append each workload's result, with its workload, seed and trace flag, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two --out files given as arguments, base first, under the bounds of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout)
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "oblivbench: want --trace 0 or 1, --seconds >= 0 and no arguments")
		return 2
	}
	selected := ws
	if *only != "all" {
		w, err := findWorkload(ws, *only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oblivbench: %v (have %s)\n", err, strings.Join(names, ", "))
			return 2
		}
		selected = []*workload{w}
	}

	code := 0
	for _, w := range selected {
		res := runWorkload(w, *seed, *seconds, *trace == 1, sz, stdout)
		if !res.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, result: res}); err != nil {
				fmt.Fprintf(os.Stderr, "oblivbench: %v\n", err)
				code = 1
			}
		}
	}
	return code
}

// runWorkload measures one workload and prints its metrics as a table, then
// as the result line.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, sz sizes, stdout io.Writer) result {
	b := newBencher(w, seed)
	var m map[string]sample
	decls := endToEnd
	if traced {
		m, decls = b.traced(seconds, sz), perLayer
	} else {
		m = b.measure(seconds)
	}
	res := result{Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "oblivbench %s seed=%d seconds=%g trace=%t\n", w.name, seed, seconds, traced)
	fmt.Fprintf(stdout, "  calibration median %.4gs over %d (reference %gs): timings are scaled by their ratio\n",
		median(b.cals), len(b.cals), refCalibration)
	fmt.Fprintf(stdout, "  %-28s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range decls {
		s := m[d.Name]
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) || (!traced && s.n == 0) {
			b.broken("no measurement of %s", d.Name)
			s = sample{}
		}
		res.Metrics[d.Name] = metricValue{Value: s.value, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-28s %16.6g  %-6s %d\n", d.Name, s.value, d.Unit, s.n)
	}
	res.Attempted, res.Failed, res.Correct = b.attempted, b.failed, b.failed == 0 && !b.incomplete
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // every value is finite, so this is a bug
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
