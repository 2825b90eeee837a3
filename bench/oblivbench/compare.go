package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles compares two sets of runs, base first, each an --out file.
// Every (end-to-end metric, workload) pair gets a verdict from judge.
// Traced runs of the same workload and seed on both sides must also agree
// exactly on every simulated count.  The exit code is 1 if any pair
// regressed or any count differs.
func compareFiles(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "oblivbench: --compare wants two files, base then new")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "oblivbench: %v\n", err)
		return 2
	}
	next, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "oblivbench: %v\n", err)
		return 2
	}
	return compareRecords(base, next, w)
}

func compareRecords(base, next []record, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-18s %13s %13s %8s %7s %6s  %s\n", "workload", "metric", "base_p50", "new_p50", "change", "spread", "bound", "verdict")
	for _, wl := range workloadsIn(base) {
		for _, d := range endToEnd {
			bv, nv := values(base, wl, d.Name), values(next, wl, d.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v := judge(d, bv, nv)
			if v.verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-18s %13.6g %13.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, d.Name, median(bv), median(nv), 100*v.change, 100*v.spread, 100*d.Bound, v.verdict)
		}
	}
	for _, n := range next {
		if n.Trace != 1 {
			continue
		}
		for _, b := range base {
			if b.Trace != 1 || b.Workload != n.Workload || b.Seed != n.Seed {
				continue
			}
			for _, c := range countMetrics {
				if bv, nv := b.Metrics[c].Value, n.Metrics[c].Value; bv != nv {
					fmt.Fprintf(w, "%s seed %d: simulated count %s differs: base %v, new %v\n", n.Workload, n.Seed, c, bv, nv)
					code = 1
				}
			}
		}
	}
	return code
}

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	verdict string  // ok, improved, regressed or unresolved
	change  float64 // relative change of the median, new against base
	spread  float64 // the wider side's interquartile spread, relative to its median
}

// judge applies d's bound.  A pair whose own spread is wider than the bound
// is unresolved, unless every new run reads better than every base run.
func judge(d metricDecl, base, next []float64) verdict {
	bm, nm := median(base), median(next)
	v := verdict{spread: max(spread(base), spread(next))}
	if bm != 0 {
		v.change = (nm - bm) / bm
	}
	worse := v.change
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case v.spread > d.Bound && allBetter(d, base, next):
		v.verdict = "improved"
	case v.spread > d.Bound:
		v.verdict = "unresolved"
	case worse > d.Bound:
		v.verdict = "regressed"
	case -worse > d.Bound:
		v.verdict = "improved"
	default:
		v.verdict = "ok"
	}
	return v
}

func allBetter(d metricDecl, base, next []float64) bool {
	for _, b := range base {
		for _, n := range next {
			if (d.Better == "lower" && n >= b) || (d.Better == "higher" && n <= b) {
				return false
			}
		}
	}
	return true
}

// values collects metric name of the untraced runs of workload wl.
func values(rs []record, wl, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Trace == 0 && r.Workload == wl {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func workloadsIn(rs []record) []string {
	seen := map[string]bool{}
	var ws []string
	for _, r := range rs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			ws = append(ws, r.Workload)
		}
	}
	sort.Strings(ws)
	return ws
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rs = append(rs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return rs, nil
}
