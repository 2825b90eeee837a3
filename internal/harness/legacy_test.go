package harness

// The removed parallel backends live on in name only: the replay backend
// (DESIGN.md §8) and the parallel-rounds backend (§11) left behind the
// par*/pr* option-set names and the deprecated no-op options
// core.WithParallel and core.WithParallelRounds, because the benchmark
// module still runs them.  Every such spelling must reproduce the serial
// golden metrics byte for byte.  The tests keep the names of the
// equivalence suites they replaced and go together with the legacy names.

import (
	"reflect"
	"testing"

	"oblivhm/internal/core"
)

// legacySets maps every legacy option-set name to the golden option set
// whose schedule it resolves to.
var legacySets = map[string]string{
	"par2": "", "par4": "", "pr2": "", "pr4": "", "pr2par2": "", "pr4par4": "",
	"pr4steal": "steal",
}

// TestParallelRoundsOptionSets: on every machine, each legacy option-set
// name reproduces the golden rows of the schedule it resolves to.
func TestParallelRoundsOptionSets(t *testing.T) {
	for name, golden := range legacySets {
		for _, machine := range goldenMachines() {
			want := readGolden(t, machine)
			for _, gc := range goldenSuite()[machine] {
				if gc.Opt != golden {
					continue
				}
				legacy := goldenCase{Algo: gc.Algo, N: gc.N, Opt: name}
				if got := measure(t, machine, legacy); !reflect.DeepEqual(want[gc.key()], got) {
					t.Errorf("%s on %s drifted from the %s golden:\n  want %+v\n  got  %+v", legacy.key(), machine, gc.key(), want[gc.key()], got)
				}
			}
		}
	}
}

// checkGoldenMatrix re-runs every golden case with a deprecated option
// appended to its options and requires its snapshot, one subtest per
// machine.
func checkGoldenMatrix(t *testing.T, extra core.Opt) {
	for _, machine := range goldenMachines() {
		t.Run(machine, func(t *testing.T) {
			want := readGolden(t, machine)
			for _, gc := range goldenSuite()[machine] {
				res, err := RunMO(gc.Algo, machine, gc.N, append(gc.opts(), extra)...)
				if err != nil {
					t.Fatalf("%s on %s: %v", gc.key(), machine, err)
				}
				if got := metricsTuple(res); !reflect.DeepEqual(want[gc.key()], got) {
					t.Errorf("%s drifted from the golden:\n  want %+v\n  got  %+v", gc.key(), want[gc.key()], got)
				}
			}
		})
	}
}

func TestParallelRoundsMatchSerialGoldenMatrix(t *testing.T) {
	checkGoldenMatrix(t, core.WithParallelRounds(2))
}

func TestParallelMatchesSerialGoldenMatrix(t *testing.T) {
	checkGoldenMatrix(t, core.WithParallel(2))
}

// chaosPair is one (machine, case) point of a chaos sweep.
type chaosPair struct {
	machine string
	gc      goldenCase
}

// parallelChaosPairs covers all five machine shapes at small sizes.
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

// checkChaosSweep requires extra to leave the chaos schedule of every pair
// unchanged at every chaos seed.
func checkChaosSweep(t *testing.T, pairs []chaosPair, extra core.Opt) {
	for _, pc := range pairs {
		t.Run(pc.machine+"/"+pc.gc.key(), func(t *testing.T) {
			for seed := int64(0); seed < chaosSeeds; seed++ {
				var tuples [2]goldenMetrics
				for i, opts := range [][]core.Opt{{core.WithChaos(seed)}, {core.WithChaos(seed), extra}} {
					res, err := RunMO(pc.gc.Algo, pc.machine, pc.gc.N, append(pc.gc.opts(), opts...)...)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					tuples[i] = metricsTuple(res)
				}
				if !reflect.DeepEqual(tuples[0], tuples[1]) {
					t.Errorf("seed %d: chaos schedule changed:\n  without %+v\n  with    %+v", seed, tuples[0], tuples[1])
				}
			}
		})
	}
}

func TestParallelRoundsChaosSweepMatchesSerial(t *testing.T) {
	checkChaosSweep(t, append(parallelChaosPairs, chaosPair{"hm5", goldenCase{Algo: "fft", N: 1 << 8, Opt: "q8"}}), core.WithParallelRounds(2))
}

func TestParallelChaosSweepMatchesSerial(t *testing.T) {
	checkChaosSweep(t, parallelChaosPairs, core.WithParallel(2))
}
