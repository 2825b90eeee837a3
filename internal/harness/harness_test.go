package harness

import (
	"math"
	"strings"
	"testing"
)

func TestRunMOAllAlgos(t *testing.T) {
	for _, algo := range MOAlgos() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			n := 1 << 10
			if algo == "cc" || algo == "lr" || algo == "lr-wyllie" {
				n = 1 << 8
			}
			res, err := RunMO(algo, "mc3", n)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps <= 0 || res.Work <= 0 {
				t.Fatalf("no work recorded: %+v", res)
			}
			if len(res.Levels) != 2 {
				t.Fatalf("mc3 has 2 cache levels, reported %d", len(res.Levels))
			}
			for _, l := range res.Levels {
				if l.Predicted <= 0 {
					t.Errorf("L%d predicted = %v", l.Level, l.Predicted)
				}
			}
			if s := res.String(); !strings.Contains(s, algo) {
				t.Errorf("String() missing algo name: %q", s)
			}
		})
	}
}

func TestRunMOUnknowns(t *testing.T) {
	if _, err := RunMO("nope", "mc3", 64); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := RunMO("mt", "nope", 64); err == nil {
		t.Error("unknown machine accepted")
	}
}

// noShapes are further valid (n, p, B) points per NO algorithm, run after
// the common n=256, p=4, B=2 shape: eight PEs and a larger block.
var noShapes = map[string][][3]int{
	"mt":     {{1 << 10, 8, 4}},
	"prefix": {{1 << 10, 8, 4}},
	"fft":    {{1 << 9, 8, 4}},
	"sort":   {{1 << 9, 8, 4}},
	"lr":     {{1 << 8, 8, 4}},
}

func TestRunNOAllAlgos(t *testing.T) {
	for _, algo := range NOAlgos() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			for _, sh := range append([][3]int{{1 << 8, 4, 2}}, noShapes[algo]...) {
				res, err := RunNO(algo, sh[0], sh[1], sh[2])
				if err != nil {
					t.Fatalf("n=%d p=%d B=%d: %v", sh[0], sh[1], sh[2], err)
				}
				if res.Supersteps <= 0 {
					t.Fatalf("no supersteps: %+v", res)
				}
				if res.Comm < 0 || res.Predicted <= 0 {
					t.Fatalf("bad accounting: %+v", res)
				}
				if s := res.String(); !strings.Contains(s, algo) {
					t.Errorf("String() missing algo name: %q", s)
				}
			}
		})
	}
}

// TestRunNOSingleElementFinite: every NO workload accepts a one-element
// input on one PE, and its prediction and ratio stay finite (lr's
// log log n term must not turn into NaN at n = 1).
func TestRunNOSingleElementFinite(t *testing.T) {
	for _, algo := range NOAlgos() {
		res, err := RunNO(algo, 1, 1, 1)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if math.IsNaN(res.Predicted) || math.IsInf(res.Predicted, 0) || math.IsNaN(res.Ratio) || math.IsInf(res.Ratio, 0) {
			t.Errorf("%s: predicted=%v ratio=%v, want finite", algo, res.Predicted, res.Ratio)
		}
	}
}

func TestRunNOUnknown(t *testing.T) {
	if _, err := RunNO("nope", 64, 4, 2); err == nil {
		t.Error("unknown NO algorithm accepted")
	}
}

// TestMORatioStability is the harness-level shape check behind
// EXPERIMENTS.md: for the flagship rows, measured/predicted stays within a
// bounded band when the input quadruples.
func TestMORatioStability(t *testing.T) {
	for _, algo := range []string{"mt", "scan", "spmdv"} {
		r1, err := RunMO(algo, "mc3", 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunMO(algo, "mc3", 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		a, b := r1.Levels[1].Ratio, r2.Levels[1].Ratio
		if b > 3*a+1 {
			t.Errorf("%s: L2 ratio jumped %0.2f -> %0.2f over 4x size", algo, a, b)
		}
	}
}
