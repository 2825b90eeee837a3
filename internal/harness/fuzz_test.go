package harness

// FuzzRunConfig fuzzes the simulated run surface: an algorithm, a machine,
// an input size, a scheduler option set, a chaos seed and a seeded failure
// plan, each drawn from a small input byte or integer.  Every input runs
// twice through RunMO.  A run without a failure plan must succeed — under
// chaos too, where WithChaos turns the per-round invariant checker on — and
// the outcome (metric tuple plus recovery report, or the error text) must
// repeat exactly.  Failure runs also carry a watchdog, which turns the
// livelock a lossy in-place re-execution could cause into a typed error
// that must itself repeat.  Wired into `make fuzz`; `make soak` runs it
// under the race detector for SOAKTIME.

import (
	"reflect"
	"testing"

	"oblivhm/internal/core"
)

// fuzzSizes gives each MO algorithm two input sizes small enough that a
// run takes milliseconds.
var fuzzSizes = map[string][2]int{
	"mt": {1 << 8, 1 << 10}, "mt-naive": {1 << 8, 1 << 10},
	"scan": {1 << 10, 1 << 12},
	"fft":  {1 << 7, 1 << 9}, "fft-iter": {1 << 7, 1 << 9},
	"sort": {1 << 7, 1 << 9},
	"mm":   {1 << 8, 1 << 10}, "mm-tiled": {1 << 8, 1 << 10},
	"gep": {1 << 8, 1 << 10}, "gep-ref": {1 << 8, 1 << 10},
	"spmdv": {1 << 8, 1 << 10}, "spmdv-rand": {1 << 8, 1 << 10},
	"lr": {1 << 6, 1 << 8}, "lr-wyllie": {1 << 6, 1 << 8},
	"cc": {1 << 5, 1 << 7},
}

var (
	fuzzMachines = []string{"mc3", "hm4", "hm5"}
	fuzzOptSets  = []string{"default", "steal", "flat", "q8"}
)

func FuzzRunConfig(f *testing.F) {
	// Arguments: algo, machine, size, option set, chaos seed, failure seed,
	// then the failure plan's kills, stragglers, slow factor, cache faults
	// and horizon.
	f.Add(uint8(5), uint8(1), uint8(1), uint8(0), int64(0), int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))     // chaos off: plain determinism probe
	f.Add(uint8(8), uint8(2), uint8(0), uint8(1), int64(12345), int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0)) // chaos run
	f.Add(uint8(6), uint8(0), uint8(1), uint8(2), int64(0), int64(777), uint8(1), uint8(2), uint8(1), uint8(3), uint8(2))   // failure plan
	f.Add(uint8(12), uint8(0), uint8(0), uint8(3), int64(-9), int64(31), uint8(2), uint8(1), uint8(2), uint8(4), uint8(0))  // chaos and failures
	f.Fuzz(func(t *testing.T, algoB, machB, sizeB, optB uint8, chaosSeed, failSeed int64, kills, stragglers, slow, faults, horizon uint8) {
		algos := MOAlgos()
		algo := algos[int(algoB)%len(algos)]
		machine := fuzzMachines[int(machB)%len(fuzzMachines)]
		n := fuzzSizes[algo][sizeB%2]
		set := fuzzOptSets[int(optB)%len(fuzzOptSets)]
		opts, err := OptionSet(set)
		if err != nil {
			t.Fatal(err)
		}
		if chaosSeed != 0 {
			opts = append(opts, core.WithChaos(chaosSeed))
		}
		// Plans stay small: up to 2 kills, 2 stragglers at 1/2 to 1/4
		// speed and 4 cache faults, all within the first 16 to 128 rounds.
		var plan core.FailurePlan
		if failSeed != 0 {
			plan = core.FailurePlan{
				KillCores:     int(kills % 3),
				Stragglers:    int(stragglers % 3),
				CacheFaults:   int(faults % 5),
				HorizonRounds: 16 << (horizon % 4),
			}
			if plan.Stragglers > 0 {
				plan.SlowFactor = int64(2 + slow%3)
			}
			opts = append(opts, core.WithFailures(failSeed, plan), core.WithWatchdog(1<<20))
		}
		type outcome struct {
			Snap failureSnapshot
			Err  string
		}
		run := func() outcome {
			res, err := RunMO(algo, machine, n, opts...)
			if err != nil {
				return outcome{Err: err.Error()}
			}
			return outcome{Snap: failureSnapshot{Metrics: metricsTuple(res), Recovery: res.Recovery}}
		}
		first, second := run(), run()
		if failSeed == 0 && first.Err != "" {
			t.Fatalf("%s/%s/n=%d/%s chaos=%d: %s", algo, machine, n, set, chaosSeed, first.Err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s/%s/n=%d/%s chaos=%d fail=%d plan=%+v: outcome diverged\n  run 1: %+v\n  run 2: %+v",
				algo, machine, n, set, chaosSeed, failSeed, plan, first, second)
		}
	})
}
