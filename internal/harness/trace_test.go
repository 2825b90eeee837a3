package harness

// Trace-equality tests: the dynamic cross-check of the static
// `dataoblivious` verdicts (DESIGN.md §9).  Three directions are gated:
//
//  1. every kernel in an //oblivcheck:dataoblivious-annotated package is
//     trace-equal across data seeds (the annotation is dynamically true),
//  2. the value-dependent kernels (sort, listrank) are NOT trace-equal —
//     the harness has the power to distinguish, so direction 1 is not
//     vacuous,
//  3. an injected secret-dependent branch — the same leak the analyzer
//     fixture internal/analysis/testdata/.../dofix flags statically — makes
//     the traces diverge at runtime too.
//
// `make trace-check` runs this file under -race.

import (
	"math/rand"
	"testing"

	"oblivhm/internal/core"
	"oblivhm/internal/hm"
	"oblivhm/internal/scan"
)

// traceSize picks an input size per algo: big enough to exercise recursion
// and placement, small enough to keep two runs per algo cheap.
func traceSize(algo string) int {
	switch algo {
	case "mm", "mm-tiled", "gep", "gep-ref":
		return 1024 // 32x32
	case "mt", "mt-naive":
		return 4096 // 64x64
	default:
		return 4096
	}
}

func TestTraceEqualObliviousKernels(t *testing.T) {
	for _, algo := range TraceOblivious() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			eq, a, b, err := TraceEqual(algo, "hm4", traceSize(algo), 1, 2)
			if err != nil {
				t.Fatalf("TraceEqual(%s): %v", algo, err)
			}
			if a.Digest.Accesses == 0 {
				t.Fatalf("%s: empty trace — capture not wired through?", algo)
			}
			if !eq {
				t.Errorf("%s: annotated data-oblivious kernel is not trace-equal across data seeds:\n  %s\n  %s", algo, a, b)
			}
		})
	}
}

func TestTraceDistinguishesValueDependentKernels(t *testing.T) {
	for _, algo := range TraceValueDependent() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			eq, a, b, err := TraceEqual(algo, "hm4", 4096, 1, 2)
			if err != nil {
				t.Fatalf("TraceEqual(%s): %v", algo, err)
			}
			if eq {
				t.Errorf("%s: value-dependent kernel reported trace-equal — the harness has lost its distinguishing power:\n  %s\n  %s", algo, a, b)
			}
		})
	}
}

// TestTraceSameSeedIsEqual pins the baseline: identical (algo, machine, n,
// seed) runs produce identical digests even for value-dependent kernels,
// so any inequality in the tests above is attributable to the data.
func TestTraceSameSeedIsEqual(t *testing.T) {
	for _, algo := range []string{"scan", "sort"} {
		a, err := TraceMO(algo, "hm4", 2048, 7)
		if err != nil {
			t.Fatalf("TraceMO(%s): %v", algo, err)
		}
		b, err := TraceMO(algo, "hm4", 2048, 7)
		if err != nil {
			t.Fatalf("TraceMO(%s): %v", algo, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: same-seed runs disagree: %s vs %s", algo, a, b)
		}
	}
}

func TestTraceEqualRejectsSameSeed(t *testing.T) {
	if _, _, _, err := TraceEqual("scan", "hm4", 1024, 3, 3); err == nil {
		t.Fatal("TraceEqual with identical seeds should refuse")
	}
}

// leakyScan is the runtime twin of the analyzer fixture's secret-dependent
// branch: a prefix-sum wrapper that issues an extra load whenever an input
// value crosses a threshold.  Statically this is exactly what the
// dataoblivious analyzer flags (branch on a value loaded from a secret
// slice); dynamically its trace must depend on the data.
func leakyScan(c *core.Ctx, v core.I64) {
	for i := 0; i < v.N; i++ {
		if v.At(c, i) > 1<<19 { // secret-dependent branch: extra access on one side
			v.At(c, i)
		}
	}
	scan.PrefixSumsI64(c, v)
}

// traceLeaky runs leakyScan under capture with values drawn from seed.
func traceLeaky(t *testing.T, seed int64) hm.TraceDigest {
	t.Helper()
	m := hm.MustMachine(hm.Presets()["hm4"])
	s := core.NewSim(m)
	const n = 2048
	v := s.NewI64(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.PokeI(v, i, int64(rng.Intn(1<<20)))
	}
	m.StartTrace()
	s.RunCold(int64(2*n), func(c *core.Ctx) { leakyScan(c, v) })
	return m.EndTrace()
}

// TestTraceCatchesInjectedLeak is the dynamic half of the bidirectional
// gate: the static half is the dofix fixture failing the dataoblivious
// analyzer, the CI self-test injects the same pattern into internal/scan
// and requires `go vet -vettool` to fail.
func TestTraceCatchesInjectedLeak(t *testing.T) {
	a := traceLeaky(t, 1)
	b := traceLeaky(t, 2)
	if a.Accesses == 0 || b.Accesses == 0 {
		t.Fatal("empty leaky traces — capture not wired through?")
	}
	if a == b {
		t.Errorf("injected secret-dependent branch not visible in the trace: %016x/%d on both seeds", a.Hash, a.Accesses)
	}
}

// TestStartTraceRefusesParallelBackend: the parallel-rounds backend records
// accesses through fan-in, whose issue order is not the serial program
// order, so StartTrace must refuse a machine in fan-in mode.
func TestStartTraceRefusesParallelBackend(t *testing.T) {
	m := hm.MustMachine(hm.Presets()["hm4"])
	m.StartRoundFanIn()
	defer func() {
		if recover() == nil {
			t.Fatal("StartTrace during fan-in recording should panic")
		}
	}()
	m.StartTrace()
}
