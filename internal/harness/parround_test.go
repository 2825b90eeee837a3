package harness

// Parallel-rounds-vs-serial equivalence at the harness level (DESIGN.md
// §11): the full golden algo × machine matrix re-run under
// core.WithParallelRounds must reproduce the serial metric tuple byte for
// byte at every worker count, and the 16-seed chaos sweep must reproduce
// the serial chaos schedules (chaos runs serialize the whole loop, so this
// pins the documented fallback).  Together with golden_test.go this closes
// the loop: serial == goldens, parallel rounds == serial, therefore
// parallel rounds == goldens.  The deprecated core.WithParallel name, which
// the out-of-module bench still passes, gets the same matrix and sweep at
// the par2/par4 worker counts.
//
// CI runs this file under -race (the workflow's parallel-equivalence step):
// the speculation phase is the only place the engine runs several strands
// at the same real instant, so the race detector is the half of the
// contract the metrics cannot show.

import (
	"reflect"
	"sort"
	"testing"

	"oblivhm/internal/core"
)

var parallelWorkerCounts = []int{2, 4, 8}

// measureWith is measure() with the given backend options appended.
func measureWith(t *testing.T, machine string, gc goldenCase, backend ...core.Opt) goldenMetrics {
	t.Helper()
	res, err := RunMO(gc.Algo, machine, gc.N, append(gc.opts(), backend...)...)
	if err != nil {
		t.Fatalf("%s on %s: %v", gc.key(), machine, err)
	}
	return metricsTuple(res)
}

func metricsTuple(r MOResult) goldenMetrics {
	m := goldenMetrics{Steps: r.Steps, PlacedAt: r.PlacedAt, Steals: r.Steals}
	for _, l := range r.Levels {
		m.MaxMisses = append(m.MaxMisses, l.MaxMisses)
	}
	return m
}

// chaosPair is one (machine, case) point of a chaos sweep.
type chaosPair struct {
	machine string
	gc      goldenCase
}

// parallelChaosPairs covers all five machine shapes with sizes small enough
// that the 16-seed × worker-count sweep stays cheap.
var parallelChaosPairs = []chaosPair{
	{"mc3", goldenCase{Algo: "sort", N: 1 << 7}},
	{"mc3", goldenCase{Algo: "scan", N: 1 << 10}},
	{"mc3a", goldenCase{Algo: "fft", N: 1 << 7}},
	{"hm4", goldenCase{Algo: "mm", N: 1 << 8}},
	{"hm4", goldenCase{Algo: "sort", N: 1 << 7, Opt: "steal"}},
	{"hm4", goldenCase{Algo: "mt", N: 1 << 8, Opt: "q8"}},
	{"hm5", goldenCase{Algo: "lr", N: 1 << 6}},
	{"seq", goldenCase{Algo: "fft", N: 1 << 7}},
}

// forkHeavyPair extends the parallel-rounds matrix and chaos sweep beyond
// the golden suite: recursive FFT forks a full fan of subproblems at every
// tree node, and the q8 option set shrinks the quantum so forks land in
// nearly every round — the admission-heaviest schedule we can drive.  It
// exercises the deferred-fork replay (speculators surviving their own
// admissions) far harder than the stock golden cases, whose long pure
// stretches rarely interleave forks with speculation.
var forkHeavyPair = chaosPair{"hm5", goldenCase{Algo: "fft", N: 1 << 8, Opt: "q8"}}

// checkGoldenMatrix re-runs every case of suite under backend(w) for each
// worker count and requires the serial metric tuple.  In -short mode each
// case keeps one rotating worker count.
func checkGoldenMatrix(t *testing.T, suite map[string][]goldenCase, workerCounts []int, backend func(int) core.Opt) {
	var machines []string
	for m := range suite {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, machine := range machines {
		machine := machine
		cases := suite[machine]
		t.Run(machine, func(t *testing.T) {
			t.Parallel()
			for i, gc := range cases {
				serial := measure(t, machine, gc)
				workers := workerCounts
				if testing.Short() {
					workers = workerCounts[i%len(workerCounts) : i%len(workerCounts)+1]
				}
				for _, w := range workers {
					if par := measureWith(t, machine, gc, backend(w)); !reflect.DeepEqual(serial, par) {
						t.Errorf("%s workers=%d diverged from serial:\n  serial   %+v\n  parallel %+v",
							gc.key(), w, serial, par)
					}
				}
			}
		})
	}
}

// checkChaosSweep requires backend(w) to land on the serial perturbed
// schedule for every pair, chaos seed and worker count.  -short keeps a
// rotating pair of seeds per case.
func checkChaosSweep(t *testing.T, pairs []chaosPair, workerCounts []int, backend func(int) core.Opt) {
	for i, pc := range pairs {
		i, pc := i, pc
		t.Run(pc.machine+"/"+pc.gc.key(), func(t *testing.T) {
			t.Parallel()
			seeds := make([]int64, 0, chaosSeeds)
			for s := 0; s < chaosSeeds; s++ {
				seeds = append(seeds, int64(s))
			}
			if testing.Short() {
				seeds = []int64{int64(i % chaosSeeds), int64((i + 5) % chaosSeeds)}
			}
			for _, seed := range seeds {
				serialRes, err := RunMO(pc.gc.Algo, pc.machine, pc.gc.N, append(pc.gc.opts(), core.WithChaos(seed))...)
				if err != nil {
					t.Fatalf("serial seed %d: %v", seed, err)
				}
				serial := metricsTuple(serialRes)
				for _, w := range workerCounts {
					parRes, err := RunMO(pc.gc.Algo, pc.machine, pc.gc.N,
						append(pc.gc.opts(), core.WithChaos(seed), backend(w))...)
					if err != nil {
						t.Fatalf("seed %d workers=%d: %v", seed, w, err)
					}
					if par := metricsTuple(parRes); !reflect.DeepEqual(serial, par) {
						t.Errorf("seed %d workers=%d: chaos schedule diverged:\n  serial   %+v\n  parallel %+v",
							seed, w, serial, par)
					}
				}
			}
		})
	}
}

// TestParallelRoundsMatchSerialGoldenMatrix: the full golden suite at every
// worker count plus the fork-heavy pair.
func TestParallelRoundsMatchSerialGoldenMatrix(t *testing.T) {
	suite := goldenSuite()
	suite[forkHeavyPair.machine] = append(suite[forkHeavyPair.machine], forkHeavyPair.gc)
	checkGoldenMatrix(t, suite, parallelWorkerCounts, core.WithParallelRounds)
}

// TestParallelRoundsChaosSweepMatchesSerial: for every machine-shape pair
// and chaos seed, WithParallelRounds must land on the identical perturbed
// schedule — chaos serializes the loop, and this sweep pins that the
// option's presence alone changes nothing.
func TestParallelRoundsChaosSweepMatchesSerial(t *testing.T) {
	pairs := append(append([]chaosPair{}, parallelChaosPairs...), forkHeavyPair)
	checkChaosSweep(t, pairs, parallelWorkerCounts, core.WithParallelRounds)
}

// TestParallelRoundsOptionSets: the named pr* option sets and the par* /
// pr*par* names kept for the deprecated backend resolve and run — a
// sweep/CLI smoke over one small case per set, pinned against "default".
func TestParallelRoundsOptionSets(t *testing.T) {
	base, err := Run(RunConfig{Algo: "sort", Machine: "mc3", N: 1 << 7})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	want := metricsTuple(base)
	for _, name := range []string{"pr2", "pr4", "par2", "par4", "pr2par2", "pr4par4"} {
		res, err := Run(RunConfig{Algo: "sort", Machine: "mc3", N: 1 << 7, Options: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := metricsTuple(res); !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged from default:\n  default %+v\n  %s %+v", name, want, name, got)
		}
	}
	// pr4steal changes the schedule (stealing on), so only check it runs.
	if _, err := Run(RunConfig{Algo: "sort", Machine: "mc3", N: 1 << 7, Options: "pr4steal"}); err != nil {
		t.Fatalf("pr4steal: %v", err)
	}
}

// parAliasWorkers are the worker counts of the par2/par4 option sets.
var parAliasWorkers = []int{2, 4}

// TestParallelMatchesSerialGoldenMatrix: the full golden suite under the
// deprecated core.WithParallel name at the par2/par4 worker counts.
func TestParallelMatchesSerialGoldenMatrix(t *testing.T) {
	checkGoldenMatrix(t, goldenSuite(), parAliasWorkers, core.WithParallel)
}

// TestParallelChaosSweepMatchesSerial: the chaos sweep under the deprecated
// core.WithParallel name at the par2/par4 worker counts.
func TestParallelChaosSweepMatchesSerial(t *testing.T) {
	checkChaosSweep(t, parallelChaosPairs, parAliasWorkers, core.WithParallel)
}
