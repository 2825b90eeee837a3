package main

// Equivalence tests for the internal/sweep rebase: every MO section of
// cmd/tables now runs through the sweep grid runner instead of its own
// run loop.  The reference implementations below are the deleted loops,
// verbatim — direct harness.RunMO calls in the original iteration order —
// and the rendered section output must match byte for byte, at every
// worker count.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"oblivhm/internal/core"
	"oblivhm/internal/harness"
	"oblivhm/internal/sweep"
)

// refTableIIMO is the pre-sweep tableIIMO run loop (machines outer, sizes
// inner, direct harness.RunMO), restricted like -quick for test time.
func refTableIIMO(w *bytes.Buffer) {
	rows := []struct {
		algo    string
		formula string
		sizes   []int
	}{
		{"scan", "Θ(n/(q_i·B_i))", []int{1 << 12}},
		{"mm", "Θ(n³/(q_i·B_i·√C_i))", []int{1 << 10}},
		{"sort", "Θ((n/(q_i·B_i))·log_{C_i} n)", []int{1 << 11}},
	}
	machines := []string{"mc3"}
	for _, row := range rows {
		fmt.Fprintf(w, "--- %s: %s\n", row.algo, row.formula)
		for _, mach := range machines {
			for _, n := range row.sizes {
				res, err := harness.RunMO(row.algo, mach, n)
				if err != nil {
					fmt.Fprintln(w, "  error:", err)
					continue
				}
				fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(strings.TrimSuffix(res.String(), "\n"), "\n", "\n  "))
			}
		}
	}
}

// sweepTableIIMO is the same subset rendered through the sweep runner,
// mirroring tableIIMO's structure.
func sweepTableIIMO(w *bytes.Buffer, workers int, t *testing.T) {
	rows := []struct {
		algo    string
		formula string
		sizes   []int
	}{
		{"scan", "Θ(n/(q_i·B_i))", []int{1 << 12}},
		{"mm", "Θ(n³/(q_i·B_i·√C_i))", []int{1 << 10}},
		{"sort", "Θ((n/(q_i·B_i))·log_{C_i} n)", []int{1 << 11}},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "--- %s: %s\n", row.algo, row.formula)
		for _, r := range mustCollect(t, row.algo, []string{"mc3"}, row.sizes, nil, workers) {
			if r.Err != "" {
				fmt.Fprintln(w, "  error:", r.Err)
				continue
			}
			fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(strings.TrimSuffix(r.Result().String(), "\n"), "\n", "\n  "))
		}
	}
}

func TestTableIIMOSweepEquivalence(t *testing.T) {
	var want bytes.Buffer
	refTableIIMO(&want)
	if want.Len() == 0 {
		t.Fatal("reference produced no output")
	}
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		sweepTableIIMO(&got, workers, t)
		if got.String() != want.String() {
			t.Errorf("workers=%d: sweep-backed tableIIMO diverges from the direct run loop\n--- want ---\n%s--- got ---\n%s",
				workers, want.String(), got.String())
		}
	}
}

// refAblation is the pre-sweep E13 loop: per algorithm, one default run
// and one flat-scheduler run, compared level by level.
func refAblation(w *bytes.Buffer, t *testing.T) {
	n := 1 << 10
	for _, algo := range []string{"mm", "sort"} {
		sb, err := harness.RunMO(algo, "hm4", n)
		if err != nil {
			t.Fatalf("ref ablation %s: %v", algo, err)
		}
		flat, err := harness.RunMO(algo, "hm4", n, core.WithFlatScheduler())
		if err != nil {
			t.Fatalf("ref ablation %s flat: %v", algo, err)
		}
		fmt.Fprintf(w, "--- %s n=%d on hm4 (higher-level misses: SB vs flat)\n", algo, n)
		for i := range sb.Levels {
			f := flat.Levels[i]
			s := sb.Levels[i]
			ratio := float64(f.MaxMisses) / float64(max(s.MaxMisses, 1))
			fmt.Fprintf(w, "  L%d: SB=%-10d flat=%-10d flat/SB=%.2f\n", s.Level, s.MaxMisses, f.MaxMisses, ratio)
		}
	}
}

func TestAblationSweepEquivalence(t *testing.T) {
	var want bytes.Buffer
	refAblation(&want, t)
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		ablation(&got, true, workers)
		if got.String() != want.String() {
			t.Errorf("workers=%d: sweep-backed ablation diverges from the direct run loop\n--- want ---\n%s--- got ---\n%s",
				workers, want.String(), got.String())
		}
	}
}

// refAssocAblation is the pre-sweep associativity loop: per algorithm, one
// ideal (mc3) run paired with one 8-way (mc3a) run.
func refAssocAblation(w *bytes.Buffer, t *testing.T) {
	n := 1 << 10
	for _, algo := range []string{"fft", "sort", "mm"} {
		ideal, err := harness.RunMO(algo, "mc3", n)
		if err != nil {
			t.Fatalf("ref assoc %s: %v", algo, err)
		}
		assoc, err := harness.RunMO(algo, "mc3a", n)
		if err != nil {
			t.Fatalf("ref assoc %s mc3a: %v", algo, err)
		}
		fmt.Fprintf(w, "--- %s n=%d: per-level max misses, ideal vs 8-way\n", algo, n)
		for i := range ideal.Levels {
			a, b := ideal.Levels[i], assoc.Levels[i]
			fmt.Fprintf(w, "  L%d: ideal=%-10d 8way=%-10d 8way/ideal=%.2f\n",
				a.Level, a.MaxMisses, b.MaxMisses, float64(b.MaxMisses)/float64(max(a.MaxMisses, 1)))
		}
	}
}

func TestAssocAblationSweepEquivalence(t *testing.T) {
	var want bytes.Buffer
	refAssocAblation(&want, t)
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		assocAblation(&got, true, workers)
		if got.String() != want.String() {
			t.Errorf("workers=%d: sweep-backed assocAblation diverges from the direct run loop\n--- want ---\n%s--- got ---\n%s",
				workers, want.String(), got.String())
		}
	}
}

func mustCollect(t *testing.T, algo string, machines []string, sizes []int, options []string, workers int) []sweep.Row {
	t.Helper()
	rows, err := sweep.Collect(&sweep.Spec{
		Algos: []string{algo}, Machines: machines, Sizes: sizes, Options: options,
	}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestMainCollectSmoke(t *testing.T) {
	// collect must return rows in grid order for the table sections to
	// pair them; a tiny two-cell grid pins that assumption.
	rows := collect(&sweep.Spec{
		Algos:    []string{"scan"},
		Machines: []string{"mc3", "hm4"},
		Sizes:    []int{1 << 10},
	}, 2)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	if rows[0].Machine != "mc3" || rows[1].Machine != "hm4" {
		t.Fatalf("rows out of grid order: %s, %s", rows[0].Key(), rows[1].Key())
	}
}
