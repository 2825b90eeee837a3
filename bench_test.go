package oblivhm_test

// One benchmark per reproduced experiment (see DESIGN.md §4 and
// EXPERIMENTS.md).  Simulated-machine benches report the model's own
// metrics (virtual steps, per-level cache misses / communication blocks)
// via b.ReportMetric; the Native* benches measure real goroutine execution
// time of the same algorithm code.

import (
	"math/rand"
	"testing"

	"oblivhm/internal/core"
	"oblivhm/internal/fft"
	"oblivhm/internal/gep"
	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
	"oblivhm/internal/spms"
)

// benchMO runs a simulated MO workload once per iteration and reports the
// model metrics of the final run.
func benchMO(b *testing.B, algo, machine string, n int, opts ...core.Opt) {
	b.Helper()
	var res harness.MOResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunMO(algo, machine, n, opts...)
		if err != nil {
			b.Fatal(err)
		}
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

// ---- scheduler round-loop microbenchmarks ----

// benchRoundLoop runs a Tick-only fork-join workload on hm4: strands
// consume virtual time without touching memory, so the cache hierarchy
// stays idle and the measurement isolates the scheduler round loop itself
// — resume/yield handoffs, budget accounting and queue churn.  The
// E-benches above are dominated by the cache walk; these give round-loop
// work a direct signal.
func benchRoundLoop(b *testing.B, tasks, ticks int) {
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
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := hm.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps = core.NewSim(m).Run(1<<16, root).Steps
	}
	b.ReportMetric(float64(steps), "vsteps")
}

// BenchmarkRoundLoopSerial: long-running strands, rare scheduler events —
// the cost of the per-round lockstep itself.
func BenchmarkRoundLoopSerial(b *testing.B) { benchRoundLoop(b, 64, 2048) }

// BenchmarkRoundLoopForkHeavy: many tiny tasks, so admissions, placements
// and joins dominate over in-round execution.
func BenchmarkRoundLoopForkHeavy(b *testing.B) { benchRoundLoop(b, 1024, 16) }

// BenchmarkRoundLoopCommitHeavy: few strands, very long pure stretches —
// thousands of rounds between scheduler events, so the per-round lockstep
// (pop, resume, requeue, clock bump) is the dominant cost.
func BenchmarkRoundLoopCommitHeavy(b *testing.B) { benchRoundLoop(b, 16, 8192) }

// BenchmarkRoundLoopMemSerial is the round loop with real memory traffic:
// PFor strands stream over disjoint slices of one array, so every round
// also walks the cache hierarchy.
func BenchmarkRoundLoopMemSerial(b *testing.B) {
	cfg, err := harness.Machine("hm4")
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := hm.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := core.NewSim(m)
		v := s.NewI64(1 << 12)
		steps = s.Run(1<<15, func(c *core.Ctx) {
			for rep := 0; rep < 4; rep++ {
				c.PFor(1<<12, 1, func(cc *core.Ctx, lo, hi int) {
					for i := lo; i < hi; i++ {
						a := v.Base + core.Addr(i)
						cc.StoreI(a, cc.LoadI(a)+1)
					}
				})
			}
		}).Steps
	}
	b.ReportMetric(float64(steps), "vsteps")
}

// BenchmarkCtxAccess is the engine's host cost of one simulated access:
// one run on mc3 issues about b.N accesses from algorithm code, loads and
// stores in turn through U64.At and U64.Set over 256 words per strand, a
// quarter of a core's L1, so every access after the first pass hits and
// the cache walk stays cheap.  solo runs them on the root strand alone,
// in batched solo grants; lockstep8 splits them over eight PFor strands,
// one per core, which run in lockstep rounds of the default quantum.
// ns/op is ns per simulated access.
func BenchmarkCtxAccess(b *testing.B) {
	for _, bc := range []struct {
		name    string
		strands int
	}{{"solo", 1}, {"lockstep8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, err := harness.Machine("mc3")
			if err != nil {
				b.Fatal(err)
			}
			m, err := hm.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := core.NewSim(m)
			const words = 256
			v := s.NewU64(bc.strands * words)
			per := (b.N/bc.strands + 1) &^ 1 // accesses per strand, even
			body := func(cc *core.Ctx, lo, hi int) {
				for k := 0; k < per; k += 2 {
					i := lo + k>>1&(words-1)
					v.Set(cc, i, v.At(cc, i)+1)
				}
			}
			b.ResetTimer()
			s.Run(int64(bc.strands*words), func(c *core.Ctx) {
				if bc.strands == 1 {
					body(c, 0, words)
					return
				}
				c.PFor(bc.strands*words, 1, body)
			})
		})
	}
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
