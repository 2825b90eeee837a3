// Command tables regenerates the paper's evaluation artifacts:
//
//   - Table I: the 𝒟 vs 𝒟* recursion orderings and their measured
//     communication on M(p,B) (experiment E10);
//   - Table II: for every problem row, measured per-level HM cache misses
//     against the MO cache-complexity formula and measured M(p,B)
//     communication against the NO formula, over size sweeps so the
//     *shape* (scaling and constants stability) is visible;
//   - the E13 scheduler ablation (SB vs flat proportionate-slice);
//   - the E15 D-BSP communication-time sweep for N-GEP.
//
// Every simulated-machine (MO) section runs through internal/sweep — the
// same grid expansion and runner as cmd/sweep — so a table cell and a
// sweep row are guaranteed to be the same measurement; the equivalence
// test in main_test.go pins the rendered output against direct
// harness.RunMO loops byte for byte.
//
// Run with -quick for a fast subset.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"oblivhm/internal/gep"
	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
	"oblivhm/internal/no"
	"oblivhm/internal/nogep"
	"oblivhm/internal/sweep"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps")
	flag.Parse()
	w := os.Stdout
	workers := runtime.GOMAXPROCS(0) // the sections' output is identical for any value

	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "Table I — D vs D* recursion orderings (N-GEP, experiment E10)")
	fmt.Fprintln(w, "==================================================================")
	tableI(w, *quick)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "Table II — MO cache complexity (per-level max misses vs formula)")
	fmt.Fprintln(w, "==================================================================")
	tableIIMO(w, *quick, workers)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "Table II — NO communication complexity (vs formula)")
	fmt.Fprintln(w, "==================================================================")
	tableIINO(w, *quick)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "E13 — scheduler ablation: SB hierarchy vs flat proportionate slice")
	fmt.Fprintln(w, "==================================================================")
	ablation(w, *quick, workers)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "E15 — N-GEP on D-BSP: communication time vs block-size vector")
	fmt.Fprintln(w, "==================================================================")
	dbspSweep(w, *quick)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "Ablation — ideal (fully associative) vs 8-way set-associative")
	fmt.Fprintln(w, "==================================================================")
	assocAblation(w, *quick, workers)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "==================================================================")
	fmt.Fprintln(w, "Table II \"Time\" column — virtual steps vs core count")
	fmt.Fprintln(w, "==================================================================")
	speedupSweep(w, *quick)
}

// collect expands and runs a programmatic spec through the sweep runner,
// exiting loudly on spec mistakes (a bug in this command, not user input).
func collect(spec *sweep.Spec, workers int) []sweep.Row {
	rows, err := sweep.Collect(spec, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables: internal spec error:", err)
		os.Exit(1)
	}
	return rows
}

// speedupSweep measures parallel steps on the 3-level machine as p grows —
// the Θ(work/p) time column of Table II (optimal while p stays below each
// row's "max value of p").  The core-count axis varies the machine *shape*
// (hm.MC3(p)), which has no preset name, so this section drives the
// harness directly rather than through a sweep grid.
func speedupSweep(w io.Writer, quick bool) {
	rows := []struct {
		algo string
		n    int
	}{
		{"mt", 1 << 14}, {"scan", 1 << 14}, {"fft", 1 << 12},
		{"sort", 1 << 12}, {"mm", 1 << 12}, {"lr", 1 << 10},
	}
	ps := []int{1, 2, 4, 8}
	fmt.Fprintf(w, "%-6s %-8s", "algo", "n")
	for _, p := range ps {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("steps(p=%d)", p))
	}
	fmt.Fprintf(w, " %10s\n", "spdup(8)")
	for _, row := range rows {
		n := row.n
		if quick {
			n /= 4
		}
		fmt.Fprintf(w, "%-6s %-8d", row.algo, n)
		var s1, s8 int64
		for _, p := range ps {
			res, err := harness.RunMOOnConfig(row.algo, hm.MC3(p), n)
			if err != nil {
				fmt.Fprintln(w, " error:", err)
				break
			}
			if p == 1 {
				s1 = res.Steps
			}
			if p == 8 {
				s8 = res.Steps
			}
			fmt.Fprintf(w, " %12d", res.Steps)
		}
		if s8 > 0 {
			fmt.Fprintf(w, " %10.2f", float64(s1)/float64(s8))
		}
		fmt.Fprintln(w)
	}
}

func assocAblation(w io.Writer, quick bool, workers int) {
	n := 1 << 12
	if quick {
		n = 1 << 10
	}
	// Grid order (machines innermost of the two axes) pairs each
	// algorithm's ideal run with its 8-way run.
	rows := collect(&sweep.Spec{
		Algos:    []string{"fft", "sort", "mm"},
		Machines: []string{"mc3", "mc3a"},
		Sizes:    []int{n},
	}, workers)
	for i := 0; i+1 < len(rows); i += 2 {
		ideal, assoc := rows[i], rows[i+1]
		if ideal.Err != "" || assoc.Err != "" {
			fmt.Fprintln(w, "error:", firstErr(ideal, assoc))
			return
		}
		fmt.Fprintf(w, "--- %s n=%d: per-level max misses, ideal vs 8-way\n", ideal.Algo, n)
		for j := range ideal.Levels {
			a, b := ideal.Levels[j], assoc.Levels[j]
			fmt.Fprintf(w, "  L%d: ideal=%-10d 8way=%-10d 8way/ideal=%.2f\n",
				a.Level, a.MaxMisses, b.MaxMisses, float64(b.MaxMisses)/float64(max(a.MaxMisses, 1)))
		}
	}
}

func tableI(w io.Writer, quick bool) {
	fmt.Fprintln(w, "Round structure (quadrants read per round of one D/D* call):")
	fmt.Fprintln(w, "  D  round 1: U11 x2, U21 x2, V11 x2, V12 x2, W11 x4")
	fmt.Fprintln(w, "  D* round 1: U11, U12, U21, U22, V11, V12, V21, V22, W11 x2, W22 x2")
	fmt.Fprintln(w, "  (with D*, no U or V quadrant is requested twice in a round)")
	fmt.Fprintln(w)
	m := 32
	if quick {
		m = 16
	}
	fmt.Fprintf(w, "%-8s %-6s %-4s %-10s %-10s %-8s\n", "matrix", "p", "B", "comm(D)", "comm(D*)", "D*/D")
	for _, p := range []int{4, 8, 16} {
		for _, b := range []int{2, 8} {
			cd := ngepComm(m, p, b, false)
			cs := ngepComm(m, p, b, true)
			fmt.Fprintf(w, "%-8d %-6d %-4d %-10d %-10d %-8.2f\n", m, p, b, cd, cs, float64(cs)/float64(cd))
		}
	}
}

func ngepComm(m, p, b int, star bool) int64 {
	pes := m * m / 4
	w := no.NewWorld(pes, p, b)
	e := &nogep.Engine{W: w, Spec: gep.Floyd(), UseDStar: star}
	in := make([]float64, m*m)
	for i := range in {
		in[i] = float64(i%17) + 1
	}
	e.RunGEP(m, in)
	return w.Comm()
}

func tableIIMO(w io.Writer, quick bool, workers int) {
	rows := []struct {
		algo    string
		formula string
		sizes   []int
	}{
		{"scan", "Θ(n/(q_i·B_i))", []int{1 << 12, 1 << 14, 1 << 16}},
		{"mt", "Θ(n²/(q_i·B_i))  [n = elements]", []int{1 << 12, 1 << 14, 1 << 16}},
		{"mm", "Θ(n³/(q_i·B_i·√C_i))", []int{1 << 10, 1 << 12}},
		{"gep", "Θ(n³/(q_i·B_i·√C_i))", []int{1 << 10, 1 << 12}},
		{"fft", "Θ((n/(q_i·B_i))·log_{C_i} n)", []int{1 << 12, 1 << 14}},
		{"sort", "Θ((n/(q_i·B_i))·log_{C_i} n)", []int{1 << 11, 1 << 13}},
		{"lr", "O((n/(q_i·B_i))·log_{C_i} n + ...)", []int{1 << 10, 1 << 12}},
		{"spmdv", "O((n/q_i)(1/B_i + 1/C_i^{1/2}))", []int{1 << 12, 1 << 14}},
		{"cc", "O((N/(q_i·B_i))·log_{C_i} N·log N + ...)", []int{1 << 9, 1 << 11}},
	}
	machines := []string{"mc3", "hm4"}
	if quick {
		machines = machines[:1]
	}
	for _, row := range rows {
		sizes := row.sizes
		if quick {
			sizes = sizes[:1]
		}
		fmt.Fprintf(w, "--- %s: %s\n", row.algo, row.formula)
		// One grid per table row: machines outer, sizes inner — the
		// paper's presentation order.
		for _, r := range collect(&sweep.Spec{
			Algos:    []string{row.algo},
			Machines: machines,
			Sizes:    sizes,
		}, workers) {
			if r.Err != "" {
				fmt.Fprintln(w, "  error:", r.Err)
				continue
			}
			fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(strings.TrimSuffix(r.Result().String(), "\n"), "\n", "\n  "))
		}
	}
}

func tableIINO(w io.Writer, quick bool) {
	rows := []struct {
		algo  string
		sizes []int
	}{
		{"mt", []int{1 << 10, 1 << 12}},
		{"prefix", []int{1 << 10, 1 << 14}},
		{"fft", []int{1 << 8, 1 << 10}},
		{"sort", []int{1 << 8, 1 << 10}},
		{"sort-bitonic", []int{1 << 10}},
		{"lr", []int{1 << 8, 1 << 10}},
		{"cc", []int{1 << 8}},
		{"ngep", []int{1 << 8, 1 << 10}},
	}
	for _, row := range rows {
		sizes := row.sizes
		if quick {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			for _, p := range []int{4, 16} {
				for _, b := range []int{2, 8} {
					res, err := harness.RunNO(row.algo, n, p, b)
					if err != nil {
						fmt.Fprintln(w, "error:", err)
						continue
					}
					fmt.Fprintln(w, " ", res)
				}
			}
		}
	}
}

func ablation(w io.Writer, quick bool, workers int) {
	n := 1 << 12
	if quick {
		n = 1 << 10
	}
	// Grid order (options innermost) pairs each algorithm's SB run with
	// its flat-scheduler run — the E13 comparison cmd/sweep's demo spec
	// (specs/sb_vs_flat.json) turns into a checked hypothesis.
	rows := collect(&sweep.Spec{
		Algos:    []string{"mm", "sort"},
		Machines: []string{"hm4"},
		Sizes:    []int{n},
		Options:  []string{"default", "flat"},
	}, workers)
	for i := 0; i+1 < len(rows); i += 2 {
		sb, flat := rows[i], rows[i+1]
		if sb.Err != "" || flat.Err != "" {
			fmt.Fprintln(w, "error:", firstErr(sb, flat))
			return
		}
		fmt.Fprintf(w, "--- %s n=%d on hm4 (higher-level misses: SB vs flat)\n", sb.Algo, n)
		for j := range sb.Levels {
			f := flat.Levels[j]
			s := sb.Levels[j]
			ratio := float64(f.MaxMisses) / float64(max(s.MaxMisses, 1))
			fmt.Fprintf(w, "  L%d: SB=%-10d flat=%-10d flat/SB=%.2f\n", s.Level, s.MaxMisses, f.MaxMisses, ratio)
		}
	}
}

func dbspSweep(w io.Writer, quick bool) {
	m := 32
	if quick {
		m = 16
	}
	pes := m * m / 4
	fmt.Fprintf(w, "%-4s %-26s %-12s\n", "p", "B vector (per level)", "D-BSP time")
	for _, p := range []int{4, 16} {
		for _, scale := range []int64{1, 4, 16} {
			world := no.NewWorld(pes, p, 1)
			e := &nogep.Engine{W: world, Spec: gep.Floyd(), UseDStar: true}
			in := make([]float64, m*m)
			for i := range in {
				in[i] = float64(i%11) + 1
			}
			e.RunGEP(m, in)
			logP := 0
			for 1<<logP < p {
				logP++
			}
			g := make([]float64, logP)
			bs := make([]int64, logP)
			for i := range g {
				g[i] = float64(int64(1) << uint(logP-i))
				bs[i] = scale << uint(i/2) // larger blocks deeper in the hierarchy
			}
			fmt.Fprintf(w, "%-4d B0=%-3d (x%d per 2 lvls)      %-12.0f\n", p, scale, 2, world.DBSPTime(g, bs))
		}
	}
}

func firstErr(rows ...sweep.Row) string {
	for _, r := range rows {
		if r.Err != "" {
			return r.Err
		}
	}
	return ""
}
