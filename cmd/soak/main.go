// Command soak stress-tests the simulated engine's robustness contract: a
// randomized sweep of algorithm × machine × input-size × scheduler-option
// combinations runs under seeded chaos (WithChaos perturbs steal victims,
// admission timing, quantum sizes and placement tie-breaks) with the runtime
// invariant checker enabled, until the time budget runs out.  Interleaved
// determinism probes re-run a pair chaos-off twice and require the metric
// tuple (Steps, per-level MaxMisses, PlacedAt, Steals) to repeat exactly,
// and a slice of iterations exercises the network-oblivious substrate,
// including shape-violation inputs that must come back as no.ErrUsage
// errors rather than stack traces.  A -failures slice (on by default)
// re-runs random points under random seeded failure plans — core kills,
// stragglers, cache faults, watchdog armed — and requires the outcome
// (metrics plus recovery report, or the typed error) to repeat exactly.
//
// Run it under the race detector — that is the point:
//
//	go run -race ./cmd/soak -duration 60s
//	make soak                               # the same, via the Makefile
//
// Any invariant violation, deadlock, unexpected error, metric divergence or
// race exits non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"time"

	"oblivhm/internal/core"
	"oblivhm/internal/harness"
	"oblivhm/internal/no"
)

// moSizes gives each MO algorithm a ladder of input sizes small enough that
// one run takes milliseconds, so a 30-second soak covers thousands of
// (algo, machine, n, opts, seed) points.
var moSizes = map[string][]int{
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

// noShapes are valid (algo, n, p, B) points for the NO substrate slice of
// the soak, plus the invalid shapes that must produce usage errors.
var noShapes = []struct {
	algo    string
	n, p, b int
}{
	{"mt", 1024, 8, 4},
	{"prefix", 1 << 10, 8, 4},
	{"fft", 1 << 9, 8, 4},
	{"sort", 1 << 9, 8, 4},
	{"lr", 1 << 8, 8, 4},
}

var noBadShapes = []struct {
	algo    string
	n, p, b int
}{
	{"fft", 1000, 7, 4},
	{"sort", 1000, 8, 4},
	{"prefix", 1000, 8, 4},
}

type metrics struct {
	Steps     int64
	MaxMisses []int64
	PlacedAt  []int
	Steals    int64
}

func metricsOf(r harness.MOResult) metrics {
	m := metrics{Steps: r.Steps, PlacedAt: r.PlacedAt, Steals: r.Steals}
	for _, l := range r.Levels {
		m.MaxMisses = append(m.MaxMisses, l.MaxMisses)
	}
	return m
}

func main() {
	duration := flag.Duration("duration", 30*time.Second, "soak time budget")
	seed := flag.Int64("seed", 1, "master seed for the randomized sweep")
	machines := flag.String("machines", "mc3,hm4,hm5", "comma-separated machine presets to sweep")
	failures := flag.Bool("failures", true, "include failure-injection iterations (seeded core kills, stragglers, cache faults)")
	verbose := flag.Bool("v", false, "log every iteration")
	flag.Parse()

	var machineList []string
	for _, m := range strings.Split(*machines, ",") {
		if m = strings.TrimSpace(m); m != "" {
			machineList = append(machineList, m)
		}
	}
	algos := harness.MOAlgos()
	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)

	optSets := []struct {
		name string
		opts []core.Opt
	}{
		{"", nil},
		{"steal", []core.Opt{core.WithStealing()}},
		{"flat", []core.Opt{core.WithFlatScheduler()}},
		{"q8", []core.Opt{core.WithQuantum(8)}},
		// Parallel round execution (DESIGN.md §11): the speculation phase
		// runs per-core strands concurrently, so chaos runs landing on these
		// sets pin the documented chaos fallback (chaos serializes the loop)
		// and the determinism probes pin metric equality.
		{"pr2", []core.Opt{core.WithParallelRounds(2)}},
		{"pr4", []core.Opt{core.WithParallelRounds(4)}},
		{"pr4+steal", []core.Opt{core.WithParallelRounds(4), core.WithStealing()}},
	}

	var iters, chaosRuns, detProbes, noRuns, noBad, failRuns int
	start := time.Now()
	for time.Now().Before(deadline) {
		iters++
		switch {
		case iters%23 == 0:
			// NO substrate slice: a valid shape must run clean...
			s := noShapes[rng.Intn(len(noShapes))]
			if _, err := harness.RunNO(s.algo, s.n, s.p, s.b); err != nil {
				fail("NO %s(n=%d,p=%d,B=%d): %v", s.algo, s.n, s.p, s.b, err)
			}
			noRuns++
			// ...and an invalid one must error through RunNO, not panic.
			bad := noBadShapes[rng.Intn(len(noBadShapes))]
			if _, err := harness.RunNO(bad.algo, bad.n, bad.p, bad.b); !errors.Is(err, no.ErrUsage) {
				fail("NO %s(n=%d,p=%d): want a no.ErrUsage error, got %v", bad.algo, bad.n, bad.p, err)
			}
			noBad++

		case iters%11 == 0:
			// Determinism probe: with chaos off, two runs of the same point
			// must agree on every pinned metric.
			algo := algos[rng.Intn(len(algos))]
			sizes := moSizes[algo]
			n := sizes[rng.Intn(len(sizes))]
			machine := machineList[rng.Intn(len(machineList))]
			ov := optSets[rng.Intn(len(optSets))]
			a, err := harness.RunMO(algo, machine, n, ov.opts...)
			if err != nil {
				fail("probe %s/%s/n=%d/%s: %v", algo, machine, n, ov.name, err)
			}
			b, err := harness.RunMO(algo, machine, n, ov.opts...)
			if err != nil {
				fail("probe rerun %s/%s/n=%d/%s: %v", algo, machine, n, ov.name, err)
			}
			if ma, mb := metricsOf(a), metricsOf(b); !reflect.DeepEqual(ma, mb) {
				fail("determinism violated: %s/%s/n=%d/%s\n  run 1: %+v\n  run 2: %+v",
					algo, machine, n, ov.name, ma, mb)
			}
			detProbes++
			if *verbose {
				fmt.Printf("probe %s/%s/n=%d/%s ok\n", algo, machine, n, ov.name)
			}

		case *failures && iters%7 == 0:
			// Failure probe: a random point under a random seeded failure
			// plan must produce the same outcome when re-run — metrics plus
			// recovery report, or the same typed error.  The watchdog bounds
			// the livelock a lossy in-place re-execution could cause, turning
			// it into a *core.FailureError that must itself repeat.
			algo := algos[rng.Intn(len(algos))]
			sizes := moSizes[algo]
			n := sizes[rng.Intn(len(sizes))]
			machine := machineList[rng.Intn(len(machineList))]
			ov := optSets[rng.Intn(len(optSets))]
			plan := core.FailurePlan{
				KillCores:     rng.Intn(3),
				Stragglers:    rng.Intn(3),
				CacheFaults:   rng.Intn(5),
				HorizonRounds: 16 << rng.Intn(4),
			}
			if plan.Stragglers > 0 {
				plan.SlowFactor = int64(2 + rng.Intn(3))
			}
			fseed := rng.Int63()
			opts := append(append([]core.Opt(nil), ov.opts...),
				core.WithFailures(fseed, plan), core.WithWatchdog(1<<20))
			run := func() (metrics, *core.RecoveryReport, string) {
				res, err := harness.RunMO(algo, machine, n, opts...)
				if err != nil {
					return metrics{}, nil, err.Error()
				}
				return metricsOf(res), res.Recovery, ""
			}
			m1, r1, e1 := run()
			m2, r2, e2 := run()
			if e1 != e2 || !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(r1, r2) {
				fail("failure outcome diverged: %s/%s/n=%d/%s fseed=%d plan=%+v\n  run 1: %+v %+v %q\n  run 2: %+v %+v %q",
					algo, machine, n, ov.name, fseed, plan, m1, r1, e1, m2, r2, e2)
			}
			failRuns++
			if *verbose {
				fmt.Printf("failure %s/%s/n=%d/%s fseed=%d ok\n", algo, machine, n, ov.name, fseed)
			}

		default:
			// Chaos run: random point, random chaos seed, invariants on.
			algo := algos[rng.Intn(len(algos))]
			sizes := moSizes[algo]
			n := sizes[rng.Intn(len(sizes))]
			machine := machineList[rng.Intn(len(machineList))]
			ov := optSets[rng.Intn(len(optSets))]
			cs := rng.Int63()
			opts := append(append([]core.Opt(nil), ov.opts...), core.WithChaos(cs))
			if _, err := harness.RunMO(algo, machine, n, opts...); err != nil {
				fail("chaos %s/%s/n=%d/%s seed=%d: %v", algo, machine, n, ov.name, cs, err)
			}
			chaosRuns++
			if *verbose {
				fmt.Printf("chaos %s/%s/n=%d/%s seed=%d ok\n", algo, machine, n, ov.name, cs)
			}
		}
	}
	fmt.Printf("soak ok: %d iterations in %v (%d chaos runs, %d determinism probes, %d failure probes, %d NO runs, %d NO usage errors)\n",
		iters, time.Since(start).Round(time.Millisecond), chaosRuns, detProbes, failRuns, noRuns, noBad)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "soak: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
