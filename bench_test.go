package oblivhm_test

// One benchmark per reproduced experiment (see DESIGN.md §4 and
// EXPERIMENTS.md).  Simulated-machine benches report the model's own
// metrics (virtual steps, per-level cache misses / communication blocks)
// via b.ReportMetric; the Native* benches measure real goroutine execution
// time of the same algorithm code.

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"oblivhm/internal/core"
	"oblivhm/internal/fft"
	"oblivhm/internal/gep"
	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
	"oblivhm/internal/spms"
)

// parallelRoundsEnvWorkers reads OBLIVHM_PARALLEL_ROUNDS: when it is set to
// a positive worker count, every simulated MO bench runs under
// core.WithParallelRounds and is checked against an untimed serial
// reference run — the CI bench-smoke job uses this to fail on metric
// divergence (never on wall-clock).
func parallelRoundsEnvWorkers(b *testing.B) int {
	const name = "OBLIVHM_PARALLEL_ROUNDS"
	v := os.Getenv(name)
	if v == "" {
		return 0
	}
	w, err := strconv.Atoi(v)
	if err != nil || w <= 0 {
		b.Fatalf("%s=%q: want a positive worker count", name, v)
	}
	return w
}

// moMetricsEqual compares the metric tuple the determinism contract pins.
func moMetricsEqual(a, b harness.MOResult) bool {
	if a.Steps != b.Steps || a.Steals != b.Steals || !reflect.DeepEqual(a.PlacedAt, b.PlacedAt) {
		return false
	}
	if len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i].MaxMisses != b.Levels[i].MaxMisses {
			return false
		}
	}
	return true
}

// benchMO runs a simulated MO workload once per iteration and reports the
// model metrics of the final run.
func benchMO(b *testing.B, algo, machine string, n int, opts ...core.Opt) {
	b.Helper()
	var serial *harness.MOResult
	if wr := parallelRoundsEnvWorkers(b); wr > 0 {
		ref, err := harness.RunMO(algo, machine, n, opts...)
		if err != nil {
			b.Fatal(err)
		}
		serial = &ref
		opts = append(append([]core.Opt{}, opts...), core.WithParallelRounds(wr))
		b.ResetTimer() // the serial reference run is not part of the measurement
	}
	var res harness.MOResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunMO(algo, machine, n, opts...)
		if err != nil {
			b.Fatal(err)
		}
	}
	if serial != nil && !moMetricsEqual(*serial, res) {
		b.Fatalf("parallel metrics diverged from serial:\n  serial   %+v steals=%d placed=%v\n  parallel %+v steals=%d placed=%v",
			serial.Steps, serial.Steals, serial.PlacedAt, res.Steps, res.Steals, res.PlacedAt)
	}
	b.ReportMetric(float64(res.Steps), "vsteps")
	for _, l := range res.Levels {
		b.ReportMetric(float64(l.MaxMisses), "L"+string(rune('0'+l.Level))+"miss")
	}
}

// benchNO runs an NO workload once per iteration and reports communication
// metrics.
func benchNO(b *testing.B, algo string, n, p, blk int) {
	b.Helper()
	var res harness.NOResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunNO(algo, n, p, blk)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Comm), "comm")
	b.ReportMetric(float64(res.Comp), "comp")
	b.ReportMetric(float64(res.Supersteps), "ssteps")
}

// E1 — Table II "Prefix sum": Θ(n/p) time, Θ(n/(q_i·B_i)) misses.
func BenchmarkE1PrefixSum(b *testing.B) { benchMO(b, "scan", "hm4", 1<<14) }

// E2 — Table II "Matrix transposition", Theorem 1.
func BenchmarkE2Transpose(b *testing.B)      { benchMO(b, "mt", "hm4", 1<<14) }
func BenchmarkE2TransposeNaive(b *testing.B) { benchMO(b, "mt-naive", "hm4", 1<<14) }

// E3 — Table II "Matrix multiplication" via I-GEP function 𝒟, Theorem 5.
func BenchmarkE3MatMul(b *testing.B)      { benchMO(b, "mm", "mc3", 1<<12) }
func BenchmarkE3MatMulTiled(b *testing.B) { benchMO(b, "mm-tiled", "mc3", 1<<12) }

// E4 — Table II "GEP" (Floyd–Warshall instance), Theorem 5.
func BenchmarkE4GEP(b *testing.B)          { benchMO(b, "gep", "mc3", 1<<12) }
func BenchmarkE4GEPReference(b *testing.B) { benchMO(b, "gep-ref", "mc3", 1<<12) }

// E5 — Table II "FFT", Theorem 2.
func BenchmarkE5FFT(b *testing.B)          { benchMO(b, "fft", "hm4", 1<<13) }
func BenchmarkE5FFTIterative(b *testing.B) { benchMO(b, "fft-iter", "hm4", 1<<13) }

// E6 — Table II "Sorting" (SPMS structure), Theorem 3.
func BenchmarkE6Sort(b *testing.B) { benchMO(b, "sort", "hm4", 1<<12) }

// E7 — Table II "List ranking", Theorem 7.
func BenchmarkE7ListRank(b *testing.B)       { benchMO(b, "lr", "mc3", 1<<10) }
func BenchmarkE7ListRankWyllie(b *testing.B) { benchMO(b, "lr-wyllie", "mc3", 1<<10) }

// E8 — Theorem 4 (SpM-DV on separator-reordered grid matrices).
func BenchmarkE8SpMDV(b *testing.B)            { benchMO(b, "spmdv", "hm4", 1<<14) }
func BenchmarkE8SpMDVRandomOrder(b *testing.B) { benchMO(b, "spmdv-rand", "hm4", 1<<14) }

// E9 — Theorem 8 (connected components).
func BenchmarkE9CC(b *testing.B) { benchMO(b, "cc", "mc3", 1<<9) }

// E10 — Table I: N-GEP with 𝒟* vs I-GEP's 𝒟 ordering on M(p,B).
func BenchmarkE10DStar(b *testing.B) { benchNO(b, "ngep", 1<<10, 8, 4) }
func BenchmarkE10D(b *testing.B)     { benchNO(b, "ngep-d", 1<<10, 8, 4) }

// E11 — Table II NO column: communication of NO-MT / NO-FFT / prefix.
func BenchmarkE11NOTranspose(b *testing.B) { benchNO(b, "mt", 1<<12, 16, 4) }
func BenchmarkE11NOFFT(b *testing.B)       { benchNO(b, "fft", 1<<10, 16, 4) }
func BenchmarkE11NOPrefix(b *testing.B)    { benchNO(b, "prefix", 1<<12, 16, 4) }
func BenchmarkE11NOSort(b *testing.B)      { benchNO(b, "sort", 1<<10, 16, 4) }

// E12 — Theorem 9: NO list ranking.
func BenchmarkE12NOListRank(b *testing.B) { benchNO(b, "lr", 1<<10, 16, 4) }

// E13 — scheduler ablation: the SB hierarchy vs the flat
// proportionate-slice baseline of §II.
func BenchmarkE13MatMulSB(b *testing.B) { benchMO(b, "mm", "hm4", 1<<12) }
func BenchmarkE13MatMulFlat(b *testing.B) {
	benchMO(b, "mm", "hm4", 1<<12, core.WithFlatScheduler())
}

// E15 — Theorem 6: N-GEP communication (D-BSP time is printed by
// cmd/tables; here the M(p,B) communication at two block sizes).
func BenchmarkE15NGEPB2(b *testing.B) { benchNO(b, "ngep", 1<<10, 16, 2) }
func BenchmarkE15NGEPB8(b *testing.B) { benchNO(b, "ngep", 1<<10, 16, 8) }

// ---- scheduler round-loop microbenchmarks (DESIGN.md §11) ----

// benchRoundLoop runs a Tick-only fork-join workload on hm4: strands
// consume virtual time without touching memory, so the cache hierarchy and
// the fan-in buffers stay idle and the measurement isolates the scheduler
// round loop itself — resume/yield handoffs, budget accounting, queue
// churn, and (under WithParallelRounds) the speculation/commit machinery.
// The E-benches above are dominated by the cache walk; these give
// round-loop work a direct signal.
func benchRoundLoop(b *testing.B, tasks, ticks int, opts ...core.Opt) {
	b.Helper()
	cfg, err := harness.Machine("hm4")
	if err != nil {
		b.Fatal(err)
	}
	root := func(c *core.Ctx) {
		c.SpawnCGCSB(1<<10, tasks, func(cc *core.Ctx, idx int) {
			for k := 0; k < ticks; k++ {
				cc.Tick(4)
			}
		})
	}
	run := func(extra ...core.Opt) int64 {
		m, err := hm.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return core.NewSim(m, extra...).Run(1<<16, root).Steps
	}
	refSteps := int64(-1)
	if len(opts) > 0 {
		// Untimed serial reference: like benchMO's env-driven check, any
		// non-default backend must land on the identical virtual schedule.
		refSteps = run()
		b.ResetTimer()
	}
	var steps int64
	for i := 0; i < b.N; i++ {
		steps = run(opts...)
	}
	if refSteps >= 0 && steps != refSteps {
		b.Fatalf("vsteps diverged from serial: serial %d, got %d", refSteps, steps)
	}
	b.ReportMetric(float64(steps), "vsteps")
}

// prBenchWorkers sizes WithParallelRounds for the RoundLoop benches: all
// host CPUs, floored at the backend's >= 2 eligibility threshold so the
// speculation/commit machinery is actually measured (time-shared) even on a
// single-CPU host instead of silently benching the disabled path.
func prBenchWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 2 {
		return w
	}
	return 2
}

// BenchmarkRoundLoopSerial: long-running strands, rare scheduler events —
// the cost of the per-round lockstep itself.
func BenchmarkRoundLoopSerial(b *testing.B) { benchRoundLoop(b, 64, 2048) }

// BenchmarkRoundLoopForkHeavy: many tiny tasks, so admissions, placements
// and joins dominate over in-round execution.
func BenchmarkRoundLoopForkHeavy(b *testing.B) { benchRoundLoop(b, 1024, 16) }

// BenchmarkRoundLoopParallelRounds: the tick workload under the phase-split
// backend — epochs of pure rounds run on worker threads, so the delta vs
// Serial is the speculation win (or, on one CPU, its overhead).
func BenchmarkRoundLoopParallelRounds(b *testing.B) {
	benchRoundLoop(b, 64, 2048, core.WithParallelRounds(prBenchWorkers()))
}

// BenchmarkRoundLoopForkHeavyParallelRounds: many tiny tasks under the
// backend.  Deferred admissions keep speculators alive through their own
// forks, so epochs stay multi-round instead of degenerating to serial the
// moment a strand spawns.
func BenchmarkRoundLoopForkHeavyParallelRounds(b *testing.B) {
	benchRoundLoop(b, 1024, 16, core.WithParallelRounds(prBenchWorkers()))
}

// BenchmarkRoundLoopCommitHeavy: few strands, very long pure stretches —
// thousands of rounds between scheduler events, so the per-round commit
// walk (pop, flush, requeue, clock bump) is the dominant serial cost this
// PR's bulk commit collapses into one queue transition per epoch.
func BenchmarkRoundLoopCommitHeavy(b *testing.B) { benchRoundLoop(b, 16, 8192) }

func BenchmarkRoundLoopCommitHeavyParallelRounds(b *testing.B) {
	benchRoundLoop(b, 16, 8192, core.WithParallelRounds(prBenchWorkers()))
}

// benchRoundMem is benchRoundLoop with real memory traffic: PFor strands
// stream over disjoint slices of one array, so under WithParallelRounds
// every pure round records into the fan-in buffers and the commit path
// carries the full access stream — the fan-in record and flush is what's
// being measured, not the tick loop.
func benchRoundMem(b *testing.B, opts ...core.Opt) {
	b.Helper()
	cfg, err := harness.Machine("hm4")
	if err != nil {
		b.Fatal(err)
	}
	run := func(extra ...core.Opt) (int64, hm.Snapshot) {
		m, err := hm.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := core.NewSim(m, extra...)
		v := s.NewI64(1 << 12)
		st := s.Run(1<<15, func(c *core.Ctx) {
			for rep := 0; rep < 4; rep++ {
				c.PFor(1<<12, 1, func(cc *core.Ctx, lo, hi int) {
					for i := lo; i < hi; i++ {
						a := v.Base + core.Addr(i)
						cc.StoreI(a, cc.LoadI(a)+1)
					}
				})
			}
		})
		return st.Steps, m.Stats()
	}
	refSteps, refSnap := run()
	b.ResetTimer()
	var steps int64
	var snap hm.Snapshot
	for i := 0; i < b.N; i++ {
		steps, snap = run(opts...)
	}
	if steps != refSteps || !reflect.DeepEqual(snap, refSnap) {
		b.Fatalf("metrics diverged from serial:\n  serial %d %+v\n  got    %d %+v", refSteps, refSnap, steps, snap)
	}
	b.ReportMetric(float64(steps), "vsteps")
}

// BenchmarkRoundLoopMemSerial / BenchmarkRoundLoopMemParallelRounds: the
// memory-streaming workload serial vs parallel rounds, where bulk commits
// flush whole epochs of recorded chunks through the serial cache walk.
func BenchmarkRoundLoopMemSerial(b *testing.B) { benchRoundMem(b) }

func BenchmarkRoundLoopMemParallelRounds(b *testing.B) {
	benchRoundMem(b, core.WithParallelRounds(prBenchWorkers()))
}

// ---- native (real goroutine) throughput of the same algorithm code ----

func BenchmarkNativeSort(b *testing.B) {
	s := core.NewNative(0)
	n := 1 << 16
	v := s.NewPairs(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < n; k++ {
			s.PokeP(v, k, core.Pair{Key: rng.Uint64(), Val: uint64(k)})
		}
		b.StartTimer()
		s.Run(spms.SpaceBound(n), func(c *core.Ctx) { spms.Sort(c, v) })
	}
	b.SetBytes(int64(16 * n))
}

func BenchmarkNativeFFT(b *testing.B) {
	s := core.NewNative(0)
	n := 1 << 14
	x := s.NewC128(n)
	for i := 0; i < n; i++ {
		s.PokeC(x, i, complex(float64(i%17), 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(fft.SpaceBound(n), func(c *core.Ctx) { fft.MOFFT(c, x) })
	}
	b.SetBytes(int64(16 * n))
}

func BenchmarkNativeMatMul(b *testing.B) {
	s := core.NewNative(0)
	n := 128
	A := s.NewMat(n, n)
	B := s.NewMat(n, n)
	C := s.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.PokeM(A, i, j, float64(i+j))
			s.PokeM(B, i, j, float64(i-j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(gep.MatMulSpace(n), func(c *core.Ctx) { gep.MatMul(c, C, A, B) })
	}
}

// ---- design-choice ablations (DESIGN.md §5) ----

// Associativity: ideal (fully associative) vs 8-way set-associative caches
// running the same oblivious schedule.
func BenchmarkAblationIdealCache(b *testing.B) { benchMO(b, "fft", "mc3", 1<<12) }
func BenchmarkAblation8WayCache(b *testing.B)  { benchMO(b, "fft", "mc3a", 1<<12) }

// Virtual-time quantum: finer interleaving vs the default.
func BenchmarkAblationQuantum4(b *testing.B) {
	benchMO(b, "mt", "hm4", 1<<14, core.WithQuantum(4))
}
func BenchmarkAblationQuantum256(b *testing.B) {
	benchMO(b, "mt", "hm4", 1<<14, core.WithQuantum(256))
}

// Work stealing extension vs plain hint-driven placement.
func BenchmarkAblationStealing(b *testing.B) {
	benchMO(b, "sort", "hm4", 1<<12, core.WithStealing())
}

// NO sorting: the columnsort-based algorithm (the paper's choice) against
// the bitonic baseline at the same (n, p, B).
func BenchmarkE11NOSortBitonic(b *testing.B) { benchNO(b, "sort-bitonic", 1<<10, 16, 4) }

// E12 extension: NO connected components (Theorem 10).
func BenchmarkE12NOCC(b *testing.B) { benchNO(b, "cc", 1<<8, 16, 4) }
