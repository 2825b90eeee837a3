package harness

// Chaos sweep over the golden workload pairs: every algo × machine pair the
// determinism contract pins must also complete under seeded fault injection
// (WithChaos perturbs steal victims, admission timing, quantum sizes and
// placement tie-breaks) with the engine's runtime invariants checked after
// every round.  This is the robustness half of the contract: chaos off means
// byte-identical goldens (golden_test.go); chaos on means different
// schedules, same termination, no invariant violations, no races.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"oblivhm/internal/core"
	"oblivhm/internal/hm"
	"oblivhm/internal/no"
)

const chaosSeeds = 16

// chaosSweepCases returns the golden suite flattened to (machine, case)
// pairs in deterministic order.
func chaosSweepCases() []struct {
	machine string
	gc      goldenCase
} {
	suite := goldenSuite()
	var machines []string
	for m := range suite {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	var out []struct {
		machine string
		gc      goldenCase
	}
	for _, m := range machines {
		for _, gc := range suite[m] {
			out = append(out, struct {
				machine string
				gc      goldenCase
			}{m, gc})
		}
	}
	return out
}

// TestChaosSweepGoldenPairs runs every golden algo × machine pair under
// chaos across chaosSeeds seeds.  Completion is the assertion: a hang would
// trip the deadlock backstop (surfacing as a *DeadlockError through the
// checked harness path), and WithChaos enables the invariant checker, so a
// conservation or occupancy violation fails the run with an
// *InvariantError.  In -short mode each case gets a rotating pair of seeds
// instead of all of them, keeping the smoke cheap while the full sweep runs
// in CI.
func TestChaosSweepGoldenPairs(t *testing.T) {
	cases := chaosSweepCases()
	for i, c := range cases {
		i, c := i, c
		t.Run(c.machine+"/"+c.gc.key(), func(t *testing.T) {
			t.Parallel()
			seeds := make([]int64, 0, chaosSeeds)
			for s := 0; s < chaosSeeds; s++ {
				seeds = append(seeds, int64(s))
			}
			if testing.Short() {
				seeds = []int64{int64(i % chaosSeeds), int64((i + 7) % chaosSeeds)}
			}
			for _, seed := range seeds {
				opts := append(c.gc.opts(), core.WithChaos(seed))
				if _, err := RunMO(c.gc.Algo, c.machine, c.gc.N, opts...); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestChaosSameSeedReproducible: chaos is deterministic per seed — the
// perturbed schedule is still a schedule, so the full metric tuple must
// repeat when the seed does.
func TestChaosSameSeedReproducible(t *testing.T) {
	for _, gc := range []goldenCase{
		{Algo: "sort", N: 1 << 9},
		{Algo: "mm", N: 1 << 10},
		{Algo: "lr", N: 1 << 8, Opt: "steal"},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			run := func() goldenMetrics {
				res, err := RunMO(gc.Algo, "hm4", gc.N, append(gc.opts(), core.WithChaos(seed))...)
				if err != nil {
					t.Fatalf("%s seed %d: %v", gc.key(), seed, err)
				}
				m := goldenMetrics{Steps: res.Steps, PlacedAt: res.PlacedAt, Steals: res.Steals}
				for _, l := range res.Levels {
					m.MaxMisses = append(m.MaxMisses, l.MaxMisses)
				}
				return m
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two chaos runs disagree:\n  %+v\n  %+v", gc.key(), seed, a, b)
			}
		}
	}
}

// chaosCell is one snapshotted chaos run: the metric tuple plus the
// recovery report, or the error text when the run failed.
type chaosCell struct {
	failureSnapshot
	Err string `json:"err,omitempty"`
}

// TestGoldenChaosMatrix pins chaos schedules across commits: {mm, sort, lr,
// spmdv} × {mc3, hm4, hm5} × six option sets × chaos seeds {1, 7} at each
// algorithm's smaller fuzz size, against testdata/golden_chaos.json.  The
// other chaos tests only check that runs complete and that a seed repeats
// within one build; this one fails when any perturbation draw moves.
// Regenerate (only when a chaos schedule change is intended and reviewed)
// with
//
//	go test ./internal/harness -run TestGoldenChaosMatrix -update
func TestGoldenChaosMatrix(t *testing.T) {
	got := make(map[string]chaosCell)
	for _, algo := range []string{"mm", "sort", "lr", "spmdv"} {
		for _, machine := range []string{"mc3", "hm4", "hm5"} {
			for _, set := range []string{"default", "steal", "flat", "q8", "failstop1", "faulty"} {
				for _, seed := range []int64{1, 7} {
					o := observeFailure(algo, machine, fuzzSizes[algo][0], set, seed)
					got[fmt.Sprintf("%s/%s/%s/%d", algo, machine, set, seed)] = chaosCell{o.snap, o.err}
				}
			}
		}
	}
	path := filepath.Join("testdata", "golden_chaos.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d snapshots to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run with -update to create): %v", path, err)
	}
	want := map[string]chaosCell{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s: snapshot has %d entries, matrix has %d (run -update after reviewing)", path, len(want), len(got))
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no snapshot for %s (run -update after reviewing)", path, k)
		} else if !reflect.DeepEqual(w, got[k]) {
			t.Errorf("%s: chaos schedule drifted:\n  want %+v / %+v %q\n  got  %+v / %+v %q",
				k, w.Metrics, w.Recovery, w.Err, got[k].Metrics, got[k].Recovery, got[k].Err)
		}
	}
}

// TestMalformedConfigReturnsError: config validation surfaces as an error
// through the harness, never a panic (satellite of the robustness pass).
func TestMalformedConfigReturnsError(t *testing.T) {
	bad := []struct {
		name string
		cfg  hm.Config
	}{
		{"shrinking capacity", hm.Config{Name: "bad", Levels: []hm.LevelSpec{
			{Capacity: 1 << 12, Block: 1 << 4, Arity: 1},
			{Capacity: 1 << 10, Block: 1 << 4, Arity: 4},
		}}},
		{"block not dividing", hm.Config{Name: "bad", Levels: []hm.LevelSpec{
			{Capacity: 1 << 10, Block: 1 << 4, Arity: 1},
			{Capacity: 1 << 14, Block: 3 * (1 << 3), Arity: 4},
		}}},
		{"zero fan-out", hm.Config{Name: "bad", Levels: []hm.LevelSpec{
			{Capacity: 1 << 10, Block: 1 << 4, Arity: 1},
			{Capacity: 1 << 14, Block: 1 << 4, Arity: 0},
		}}},
		{"private L1 violated", hm.Config{Name: "bad", Levels: []hm.LevelSpec{
			{Capacity: 1 << 10, Block: 1 << 4, Arity: 2},
		}}},
	}
	for _, tc := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked instead of returning an error: %v", tc.name, r)
				}
			}()
			if _, err := RunMOOnConfig("scan", tc.cfg, 1<<10); err == nil {
				t.Errorf("%s: no error from RunMOOnConfig", tc.name)
			}
		}()
	}
}

// TestNonPositiveNReturnsError: an input size below 1 is rejected with an
// error naming n, through RunMO and Run alike, instead of a "successful"
// empty run.
func TestNonPositiveNReturnsError(t *testing.T) {
	_, errMO := RunMO("scan", "hm4", -5)
	_, errRun := Run(RunConfig{Algo: "scan", Machine: "hm4", N: 0})
	for _, err := range []error{errMO, errRun} {
		if err == nil || !strings.Contains(err.Error(), "n = ") {
			t.Errorf("want an error naming n, got %v", err)
		}
	}
}

// TestNonSquareNReturnsError: the eight workloads that build a side x side
// matrix or grid refuse an n that is not a perfect square, naming n,
// instead of flooring the side and reporting the smaller run under n;
// RunMO and TraceMO alike.
func TestNonSquareNReturnsError(t *testing.T) {
	for _, algo := range []string{"mt", "mt-naive", "mm", "mm-tiled", "gep", "gep-ref", "spmdv", "spmdv-rand"} {
		_, err := RunMO(algo, "hm4", 512)
		_, errTrace := TraceMO(algo, "hm4", 512, 1)
		for _, err := range []error{err, errTrace} {
			if err == nil || !strings.Contains(err.Error(), "n = 512") {
				t.Errorf("%s at n = 512: want an error naming n, got %v", algo, err)
			}
		}
	}
	if _, err := RunMO("mm", "hm4", 576); err != nil {
		t.Errorf("mm at n = 576 (side 24): %v", err)
	}
}

// TestNOSizeNamesN: the NO workloads that build a side x side matrix refuse
// an n below 1 or not a perfect square with a no.ErrUsage error naming n,
// instead of running the floored side and reporting it under n; a square n
// gives the result it always gave.
func TestNOSizeNamesN(t *testing.T) {
	for _, tc := range []struct{ algo, at1024 string }{
		{"mt", "mt       N=1024     p=4   B=2   comm=96       predicted=128        ratio=0.75   comp=512        supersteps=2      dbsp=384"},
		{"mm", "mm       N=1024     p=4   B=2   comm=1152     predicted=256        ratio=4.50   comp=50432      supersteps=76     dbsp=4608"},
		{"ngep", "ngep     N=1024     p=4   B=2   comm=1920     predicted=256        ratio=7.50   comp=134400     supersteps=880    dbsp=7680"},
		{"ngep-d", "ngep-d   N=1024     p=4   B=2   comm=1920     predicted=256        ratio=7.50   comp=134400     supersteps=880    dbsp=7680"},
	} {
		for _, n := range []int{1030, 0} {
			_, err := RunNO(tc.algo, n, 4, 2)
			if !errors.Is(err, no.ErrUsage) || !strings.Contains(err.Error(), fmt.Sprintf("n = %d", n)) {
				t.Errorf("%s at n = %d: want a no.ErrUsage error naming n, got %v", tc.algo, n, err)
			}
		}
		if res, err := RunNO(tc.algo, 1024, 4, 2); err != nil || res.String() != tc.at1024 {
			t.Errorf("%s at n = 1024: got %v, %v; want %s", tc.algo, res, err, tc.at1024)
		}
	}
}

// TestInvalidNOShapeReturnsError: PE-count and shape violations in the NO
// substrate come back as errors wrapping no.ErrUsage, not stack traces.
func TestInvalidNOShapeReturnsError(t *testing.T) {
	bad := []struct {
		algo    string
		n, p, b int
	}{
		{"fft", 1000, 7, 4},    // p does not divide N
		{"fft", 1 << 10, 0, 4}, // zero processors
		{"mt", 961, 8, 4},      // p does not divide the n^2 PE count
		{"sort", 1000, 8, 4},   // N not a power of two
		{"prefix", 1000, 8, 4}, // N not a power of two
		{"mt", 1024, 8, 0},     // zero block size
		{"ngep", 3, 8, 4},      // matrix side 1 cannot cover the PEs
		{"ngep-d", 0, 8, 4},    // empty matrix
		{"mm", 3, 8, 4},        // as ngep, through RunMatMul
	}
	for _, tc := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s(n=%d,p=%d): panicked instead of returning an error: %v", tc.algo, tc.n, tc.p, r)
				}
			}()
			_, err := RunNO(tc.algo, tc.n, tc.p, tc.b)
			if err == nil {
				t.Errorf("%s(n=%d,p=%d): no error", tc.algo, tc.n, tc.p)
				return
			}
			if !errors.Is(err, no.ErrUsage) {
				t.Errorf("%s(n=%d,p=%d): error %v does not wrap no.ErrUsage", tc.algo, tc.n, tc.p, err)
			}
		}()
	}
}

// TestChaosOffMatchesGolden double-checks additivity at the harness level:
// a run with no options and a run with WithInvariants (checks on, chaos off)
// agree metric for metric — the invariant checker is read-only.
func TestChaosOffMatchesGolden(t *testing.T) {
	for _, gc := range []goldenCase{
		{Algo: "fft", N: 1 << 9},
		{Algo: "gep", N: 1 << 10},
	} {
		plain, err := RunMO(gc.Algo, "mc3", gc.N)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := RunMO(gc.Algo, "mc3", gc.N, core.WithInvariants())
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d/%v/%v/%d", checked.Steps, metricMisses(checked), checked.PlacedAt, checked.Steals)
		want := fmt.Sprintf("%d/%v/%v/%d", plain.Steps, metricMisses(plain), plain.PlacedAt, plain.Steals)
		if got != want {
			t.Errorf("%s: WithInvariants changed the schedule: %s vs %s", gc.key(), got, want)
		}
	}
}

func metricMisses(r MOResult) []int64 {
	var mm []int64
	for _, l := range r.Levels {
		mm = append(mm, l.MaxMisses)
	}
	return mm
}
