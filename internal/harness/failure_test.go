package harness

// Failure-injection golden matrix: the determinism contract extended to
// degraded mode.  The engine promises that a failure option set (failstop1,
// straggler2x, faulty) derives a byte-identical failure schedule from its
// frozen seed and that detection, migration and re-execution are themselves
// deterministic — so the full (metrics, recovery report) tuple is pinned
// against a JSON snapshot exactly like the healthy goldens.  The matrix is
// restricted to output-writing algorithms (mm, mt, spmdv): re-executing a
// killed strand of an in-place workload is deterministic but lossy, while
// these recompute their outputs from untouched inputs, so the results stay
// verifiable too.
//
// Regenerate (only when a schedule change is intended and reviewed) with
//
//	go test ./internal/harness -run TestGoldenFailureMatrix -update

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"oblivhm/internal/core"
)

var (
	failureAlgos    = []string{"mm", "mt", "spmdv"}
	failureMachines = []string{"mc3", "hm4", "hm5"}
	failureSets     = []string{"failstop1", "straggler2x", "faulty"}
)

const failureN = 1 << 10

// failureSnapshot is the snapshotted slice of a degraded-mode MOResult:
// the usual metric tuple plus the recovery report.
type failureSnapshot struct {
	Metrics  goldenMetrics        `json:"metrics"`
	Recovery *core.RecoveryReport `json:"recovery"`
}

// measureFailure runs one cell of the matrix, with extra appended to its
// option set.
func measureFailure(t *testing.T, algo, machine, set string, extra ...core.Opt) failureSnapshot {
	t.Helper()
	opts, err := OptionSet(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMO(algo, machine, failureN, append(opts, extra...)...)
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", algo, machine, set, err)
	}
	if res.Recovery == nil {
		t.Fatalf("%s/%s/%s: failure option set produced no recovery report", algo, machine, set)
	}
	return failureSnapshot{Metrics: metricsTuple(res), Recovery: res.Recovery}
}

// failureMatrix measures every cell of the matrix, with extra appended to
// each option set, keyed algo/machine/set.
func failureMatrix(t *testing.T, extra ...core.Opt) map[string]failureSnapshot {
	t.Helper()
	got := make(map[string]failureSnapshot)
	for _, algo := range failureAlgos {
		for _, machine := range failureMachines {
			for _, set := range failureSets {
				key := fmt.Sprintf("%s/%s/%s", algo, machine, set)
				got[key] = measureFailure(t, algo, machine, set, extra...)
			}
		}
	}
	return got
}

var failureGolden = filepath.Join("testdata", "golden_failures.json")

// TestGoldenFailureMatrix pins {mm, mt, spmdv} × {mc3, hm4, hm5} × the three
// failure option sets against testdata/golden_failures.json.  Any change to
// schedule derivation, kill/migration order, re-execution accounting or the
// degraded-mode metrics fails here.
func TestGoldenFailureMatrix(t *testing.T) {
	got := failureMatrix(t)
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(failureGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(failureGolden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d snapshots to %s", len(got), failureGolden)
		return
	}
	checkFailureGolden(t, got)
}

// TestGoldenFailureMatrixUnderInvariants runs the matrix again with the
// engine's per-round invariant checks on: every run must pass them and
// reproduce its golden tuple.  Strand conservation is what sees a killed
// strand left as the waiter of its join: the join's last child queues it on
// its dead core, where it never runs.
func TestGoldenFailureMatrixUnderInvariants(t *testing.T) {
	checkFailureGolden(t, failureMatrix(t, core.WithInvariants()))
}

// checkFailureGolden compares a measured matrix with the golden snapshot.
func checkFailureGolden(t *testing.T, got map[string]failureSnapshot) {
	t.Helper()
	buf, err := os.ReadFile(failureGolden)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run with -update to create): %v", failureGolden, err)
	}
	want := map[string]failureSnapshot{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", failureGolden, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s: snapshot has %d entries, matrix has %d (run -update after reviewing)", failureGolden, len(want), len(got))
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no snapshot for %s (run -update after reviewing)", failureGolden, k)
			continue
		}
		if !reflect.DeepEqual(w, got[k]) {
			t.Errorf("%s: degraded-mode schedule drifted:\n  want %+v / %+v\n  got  %+v / %+v",
				k, w.Metrics, w.Recovery, got[k].Metrics, got[k].Recovery)
		}
	}
}

// failureOutcome is one observation of a failure-injected run for the
// determinism sweep: either a snapshot or an error string, never both.
type failureOutcome struct {
	snap failureSnapshot
	err  string
}

func observeFailure(algo, machine string, n int, set string, seed int64) failureOutcome {
	opts, oerr := OptionSet(set)
	if oerr != nil {
		return failureOutcome{err: oerr.Error()}
	}
	if seed != 0 {
		opts = append(opts, core.WithChaos(seed))
	}
	res, err := RunMO(algo, machine, n, opts...)
	if err != nil {
		return failureOutcome{err: err.Error()}
	}
	m := goldenMetrics{Steps: res.Steps, PlacedAt: res.PlacedAt, Steals: res.Steals}
	for _, l := range res.Levels {
		m.MaxMisses = append(m.MaxMisses, l.MaxMisses)
	}
	return failureOutcome{snap: failureSnapshot{Metrics: m, Recovery: res.Recovery}}
}

// TestFailureSweepDeterministicOutcome composes each failure option set with
// chaosSeeds chaos seeds over a rotating subset of the golden pairs and runs
// every cell twice: the outcome — metrics plus recovery report, or a typed
// error rendered as a string — must repeat exactly.  Chaos perturbs the
// schedule per seed, the failure plan stays frozen per set; the combination
// is the hardest reproducibility case the engine supports.
func TestFailureSweepDeterministicOutcome(t *testing.T) {
	pairs := []struct{ algo, machine string }{
		{"mm", "mc3"},
		{"mt", "hm4"},
		{"spmdv", "hm5"},
	}
	for i, p := range pairs {
		i, p := i, p
		for _, set := range failureSets {
			set := set
			t.Run(fmt.Sprintf("%s/%s/%s", p.algo, p.machine, set), func(t *testing.T) {
				t.Parallel()
				seeds := make([]int64, 0, chaosSeeds)
				for s := 0; s < chaosSeeds; s++ {
					seeds = append(seeds, int64(s))
				}
				if testing.Short() {
					seeds = []int64{int64(i % chaosSeeds), int64((i + 5) % chaosSeeds)}
				}
				for _, seed := range seeds {
					a := observeFailure(p.algo, p.machine, 1<<9, set, seed)
					b := observeFailure(p.algo, p.machine, 1<<9, set, seed)
					if a.err != b.err || !reflect.DeepEqual(a.snap, b.snap) {
						t.Fatalf("seed %d: two runs disagree:\n  %+v %q\n  %+v %q",
							seed, a.snap, a.err, b.snap, b.err)
					}
				}
			})
		}
	}
}

// TestFailureParallelRoundsByteIdentical: the deprecated no-op
// WithParallelRounds (legacy_test.go) composed with a failure option set
// reproduces the degraded-mode tuple byte for byte.
func TestFailureParallelRoundsByteIdentical(t *testing.T) {
	for _, set := range failureSets {
		want := measureFailure(t, "mm", "hm4", set)
		if got := measureFailure(t, "mm", "hm4", set, core.WithParallelRounds(2)); !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged:\n  want %+v / %+v\n  got  %+v / %+v",
				set, want.Metrics, want.Recovery, got.Metrics, got.Recovery)
		}
	}
}
