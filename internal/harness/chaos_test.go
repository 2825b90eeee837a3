package harness

// Chaos sweep over the golden workload pairs: every algo × machine pair the
// determinism contract pins must also complete under seeded fault injection
// (WithChaos perturbs steal victims, admission timing, quantum sizes and
// placement tie-breaks) with the engine's runtime invariants checked after
// every round.  This is the robustness half of the contract: chaos off means
// byte-identical goldens (golden_test.go); chaos on means different
// schedules, same termination, no invariant violations, no races.

import (
	"errors"
	"fmt"
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
// in CI and `make soak`.
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
