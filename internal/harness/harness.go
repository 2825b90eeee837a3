// Package harness wires the algorithm packages to the experiment drivers
// (cmd/hmsim, cmd/nosim, cmd/tables, the root benchmarks): named workloads,
// named machines, predicted-vs-measured bookkeeping for every table and
// figure reproduced from the paper.
package harness

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"oblivhm/internal/core"
	"oblivhm/internal/fft"
	"oblivhm/internal/gep"
	"oblivhm/internal/graph"
	"oblivhm/internal/hm"
	"oblivhm/internal/listrank"
	"oblivhm/internal/no"
	"oblivhm/internal/noalgo"
	"oblivhm/internal/nogep"
	"oblivhm/internal/scan"
	"oblivhm/internal/spmdv"
	"oblivhm/internal/spms"
	"oblivhm/internal/transpose"
)

// Machine looks up a stock HM configuration by name.
func Machine(name string) (hm.Config, error) {
	cfg, ok := hm.Presets()[name]
	if !ok {
		return hm.Config{}, fmt.Errorf("unknown machine %q (have %s)", name, strings.Join(hm.PresetNames(), ", "))
	}
	return cfg, nil
}

// LevelReport compares measured per-level misses with the paper's formula.
type LevelReport struct {
	Level     int
	Caches    int
	MaxMisses int64
	Predicted float64 // the Table II cache-complexity formula, unit constant
	Ratio     float64 // measured / predicted: should be stable across levels/sizes
}

// MOResult is one simulated-machine run.
type MOResult struct {
	Algo    string
	Machine string
	N       int
	Steps   int64
	Work    int64 // total accesses
	Levels  []LevelReport

	// PlacedAt[i] is the number of tasks anchored at cache level i+1 and
	// Steals the number of strand migrations (stealing extension).  Together
	// with Steps and the per-level MaxMisses they form the engine's
	// determinism contract: the golden-metrics tests pin all four byte for
	// byte across engine rewrites.
	PlacedAt []int
	Steals   int64

	// Recovery is the degraded-mode report of a failure-injected run
	// (failstop1/straggler2x/faulty option sets); nil when failure injection
	// is off.  Part of the frozen contract: the golden failure matrix pins
	// it byte for byte.
	Recovery *core.RecoveryReport
}

func (r MOResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s machine=%-4s n=%-8d steps=%-10d accesses=%d\n", r.Algo, r.Machine, r.N, r.Steps, r.Work)
	fmt.Fprintf(&b, "  %-5s %6s %12s %14s %8s\n", "level", "caches", "maxMisses", "predicted", "ratio")
	for _, l := range r.Levels {
		fmt.Fprintf(&b, "  L%-4d %6d %12d %14.0f %8.2f\n", l.Level, l.Caches, l.MaxMisses, l.Predicted, l.Ratio)
	}
	return b.String()
}

// MOAlgos lists the runnable multicore-oblivious workloads.
func MOAlgos() []string {
	return []string{"mt", "mt-naive", "scan", "fft", "fft-iter", "sort", "mm", "mm-tiled", "gep", "gep-ref", "spmdv", "spmdv-rand", "lr", "lr-wyllie", "cc"}
}

// RunMO runs the named workload cold on the named machine and returns the
// measured counters together with the per-level Table II predictions.
func RunMO(algo, machine string, n int, opts ...core.Opt) (MOResult, error) {
	cfg, err := Machine(machine)
	if err != nil {
		return MOResult{}, err
	}
	return RunMOOnConfig(algo, cfg, n, opts...)
}

// RunMOOnConfig is RunMO for an explicit machine configuration (used by the
// speedup sweeps, which vary the core count).
func RunMOOnConfig(algo string, cfg hm.Config, n int, opts ...core.Opt) (MOResult, error) {
	m, err := hm.NewMachine(cfg)
	if err != nil {
		return MOResult{}, err
	}
	s := core.NewSim(m, opts...)
	st, predict, err := runWorkload(s, algo, n, defaultDataSeed)
	if err != nil {
		return MOResult{}, err
	}
	res := MOResult{Algo: algo, Machine: cfg.Name, N: n, Steps: st.Steps, Work: st.Sim.Accesses, Steals: s.Steals(), Recovery: st.Recovery}
	for lv := 1; lv <= len(cfg.Levels); lv++ {
		res.PlacedAt = append(res.PlacedAt, s.PlacedAt(lv))
	}
	for _, l := range st.Sim.Levels {
		spec := cfg.Levels[l.Level-1]
		q := cfg.CachesAt(l.Level)
		pred := predict(float64(n), float64(q), float64(spec.Block), float64(spec.Capacity))
		lr := LevelReport{Level: l.Level, Caches: l.Caches, MaxMisses: l.MaxMisses, Predicted: pred}
		if pred > 0 {
			lr.Ratio = float64(l.MaxMisses) / pred
		}
		res.Levels = append(res.Levels, lr)
	}
	return res, nil
}

// predictFn maps (n, q_i, B_i, C_i) to the Table II per-cache miss formula.
type predictFn func(n, q, b, c float64) float64

// defaultDataSeed is the input-generation seed behind every golden metric:
// RunMO and friends are pure functions of (algo, machine, n) because they
// always build inputs from this seed.  The trace-equality harness
// (trace.go) is the one caller that varies the seed — two runs on different
// data of identical shape must produce identical access traces for the
// kernels annotated //oblivcheck:dataoblivious.
const defaultDataSeed = 42

// runWorkload builds the input for algo at size n from the seeded stream,
// runs it cold, and returns the stats plus the prediction formula.  A
// failed run returns the engine's typed failure (a panicking strand as
// *core.RunError, a wedged schedule as *core.DeadlockError, a violated
// invariant as *core.InvariantError) from Session.TryRunCold.
//
// Input generation draws from an explicitly seeded rand.New(rand.NewSource)
// stream threaded through the builders — never the global math/rand source —
// so every golden metric is a pure function of (algo, machine, n, seed).
// This is the harness-side counterpart of the engine's chaos PRNG convention
// (internal/core/chaos.go) and is what the oblivcheck determinism analyzer
// enforces: package-level rand functions are findings, seeded streams pass.
// The stream stays math/rand (not splitmix64) because the golden snapshots
// pin the inputs it produced at seed time.
func runWorkload(s *core.Session, algo string, n int, seed int64) (core.RunStats, predictFn, error) {
	if !slices.Contains(MOAlgos(), algo) {
		return core.RunStats{}, nil, fmt.Errorf("unknown MO algorithm %q (have %s)", algo, strings.Join(MOAlgos(), ", "))
	}
	if err := checkSize(algo, n); err != nil {
		return core.RunStats{}, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var (
		space   int64
		run     func(*core.Ctx)
		predict predictFn
	)
	switch algo {
	case "mt", "mt-naive":
		side := intSqrt(n)
		A := s.NewMat(side, side)
		AT := s.NewMat(side, side)
		I := s.NewF64(side * side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				s.PokeM(A, i, j, rng.Float64())
			}
		}
		space, run = transpose.SpaceBound(side), func(c *core.Ctx) { transpose.MOMT(c, A, AT, I) }
		if algo == "mt-naive" {
			run = func(c *core.Ctx) { transpose.Naive(c, A, AT) }
		}
		predict = func(n, q, b, c float64) float64 { return n/(q*b) + b }

	case "scan":
		v := s.NewI64(n)
		for i := 0; i < n; i++ {
			s.PokeI(v, i, int64(rng.Intn(1<<20)))
		}
		space, run = int64(2*n), func(c *core.Ctx) { scan.PrefixSumsI64(c, v) }
		predict = func(n, q, b, c float64) float64 { return n / (q * b) }

	case "fft", "fft-iter":
		x := s.NewC128(n)
		for i := 0; i < n; i++ {
			s.PokeC(x, i, complex(rng.Float64(), rng.Float64()))
		}
		space, run = fft.SpaceBound(n), func(c *core.Ctx) { fft.MOFFT(c, x) }
		if algo == "fft-iter" {
			run = func(c *core.Ctx) { fft.Iterative(c, x) }
		}
		predict = func(nn, q, b, c float64) float64 {
			w := 2 * nn
			return w / (q * b) * logBase(c, w)
		}

	case "sort":
		v := s.NewPairs(n)
		for i := 0; i < n; i++ {
			s.PokeP(v, i, core.Pair{Key: rng.Uint64(), Val: uint64(i)})
		}
		space, run = spms.SpaceBound(n), func(c *core.Ctx) { spms.Sort(c, v) }
		predict = func(nn, q, b, c float64) float64 {
			w := 2 * nn
			return w / (q * b) * logBase(c, w)
		}

	case "mm", "mm-tiled":
		side := intSqrt(n)
		A := randMat(s, rng, side)
		B := randMat(s, rng, side)
		C := s.NewMat(side, side)
		space, run = gep.MatMulSpace(side), func(c *core.Ctx) { gep.MatMul(c, C, A, B) }
		if algo == "mm-tiled" {
			tile := int(math.Sqrt(float64(s.Machine().Cfg.Levels[0].Capacity) / 4))
			run = func(c *core.Ctx) { gep.TiledMatMul(c, C, A, B, tile) }
		}
		predict = mmPredict(side)

	case "gep", "gep-ref":
		side := intSqrt(n)
		x := randMat(s, rng, side)
		space, run = gep.SpaceBound(side), func(c *core.Ctx) { gep.IGEP(c, x, gep.Floyd()) }
		if algo == "gep-ref" {
			run = func(c *core.Ctx) { gep.Reference(c, x, gep.Floyd()) }
		}
		predict = mmPredict(side)

	case "spmdv", "spmdv-rand":
		side := intSqrt(n)
		var perm []int
		if algo == "spmdv" {
			perm = spmdv.SeparatorOrderGrid(side)
		} else {
			perm = rng.Perm(side * side)
		}
		a := spmdv.FromEntries(s, side*side, spmdv.GridEntries(side, perm))
		x := s.NewF64(side * side)
		y := s.NewF64(side * side)
		for i := 0; i < side*side; i++ {
			s.PokeF(x, i, rng.Float64())
		}
		space, run = spmdv.SpaceBound(side*side), func(c *core.Ctx) { spmdv.MOSpMDV(c, a, x, y) }
		predict = func(nn, q, b, c float64) float64 {
			return nn / q * (1/b + 1/math.Sqrt(c))
		}

	case "lr", "lr-wyllie":
		perm := rng.Perm(n)
		l := listrank.FromPerm(s, perm)
		rank := s.NewI64(n)
		space, run = listrank.SpaceBound(n), func(c *core.Ctx) { listrank.MOLR(c, l, rank) }
		if algo == "lr-wyllie" {
			run = func(c *core.Ctx) { listrank.Wyllie(c, l, rank) }
		}
		predict = func(nn, q, b, c float64) float64 {
			return 2 * nn / (q * b) * logBase(c, nn)
		}

	case "cc":
		edges := randomEdges(n, 2*n, rng)
		arcs := graph.BuildArcs(s, edges)
		comp := s.NewI64(n)
		space, run = graph.SpaceBound(n, arcs.N), func(c *core.Ctx) { graph.CC(c, n, arcs, comp) }
		predict = func(nn, q, b, c float64) float64 {
			w := 3 * nn
			return w / (q * b) * logBase(c, w) * math.Log2(w)
		}
	}
	st, err := s.TryRunCold(space, run)
	return st, predict, err
}

func mmPredict(side int) predictFn {
	return func(_, q, b, c float64) float64 {
		n3 := float64(side) * float64(side) * float64(side)
		return n3 / (q * b * math.Sqrt(c))
	}
}

// NOResult is one network-oblivious run.
type NOResult struct {
	Algo       string
	N, P, B    int
	Comm       int64
	Predicted  float64
	Ratio      float64
	Comp       int64
	Supersteps int
	DBSPTime   float64
}

func (r NOResult) String() string {
	return fmt.Sprintf("%-8s N=%-8d p=%-3d B=%-3d comm=%-8d predicted=%-10.0f ratio=%-6.2f comp=%-10d supersteps=%-6d dbsp=%.0f",
		r.Algo, r.N, r.P, r.B, r.Comm, r.Predicted, r.Ratio, r.Comp, r.Supersteps, r.DBSPTime)
}

// NOAlgos lists the runnable network-oblivious workloads.
func NOAlgos() []string {
	return []string{"mt", "prefix", "fft", "sort", "sort-bitonic", "lr", "cc", "ngep", "ngep-d", "mm"}
}

// RunNO runs the named NO workload on M(p,B) and reports communication
// against the Table II formula.  Machine-shape and size violations (p not
// dividing n, non-power-of-two PE counts, an n checkSize refuses, ...) come
// back as errors wrapping no.ErrUsage rather than panics, so CLIs can print
// a usage hint.
func RunNO(algo string, n, p, b int) (res NOResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, no.ErrUsage) {
				err = e
				return
			}
			panic(r)
		}
	}()
	if b < 1 {
		return NOResult{}, no.Usagef("no: block size B=%d must be at least 1", b)
	}
	if !slices.Contains(NOAlgos(), algo) {
		return NOResult{}, fmt.Errorf("unknown NO algorithm %q (have %s)", algo, strings.Join(NOAlgos(), ", "))
	}
	if err := checkSize(algo, n); err != nil {
		return NOResult{}, no.Usagef("%w", err)
	}
	rng := rand.New(rand.NewSource(7))
	var w *no.World
	var predicted float64
	switch algo {
	case "mt":
		side := intSqrt(n)
		w = no.NewWorld(side*side, p, b)
		val := make([]uint64, side*side)
		for i := range val {
			val[i] = uint64(i)
		}
		noalgo.Transpose(w, side, val)
		predicted = float64(side*side) / float64(p*b)

	case "prefix":
		w = no.NewWorld(n, p, b)
		val := make([]uint64, n)
		for i := range val {
			val[i] = uint64(i % 3)
		}
		noalgo.PrefixSums(w, val)
		predicted = math.Log2(float64(p))

	case "fft":
		w = no.NewWorld(n, p, b)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		noalgo.FFT(w, x)
		predicted = float64(n) / float64(p*b) * logBase(float64(n)/float64(p), float64(n))

	case "sort", "sort-bitonic":
		w = no.NewWorld(n, p, b)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		if algo == "sort" {
			noalgo.ColumnSort(w, keys)
			predicted = float64(n) / float64(p*b) // the paper's columnsort bound
		} else {
			noalgo.BitonicSort(w, keys)
			lg := math.Log2(float64(n))
			predicted = float64(n) / float64(p*b) * lg * lg // log² above columnsort
		}

	case "lr":
		w = no.NewWorld(n, p, b)
		perm := rng.Perm(n)
		succ := make([]int, n)
		pred := make([]int, n)
		for i := 0; i < n; i++ {
			succ[perm[i]], pred[perm[i]] = -1, -1
			if i+1 < n {
				succ[perm[i]] = perm[i+1]
			}
			if i > 0 {
				pred[perm[i]] = perm[i-1]
			}
		}
		noalgo.ListRank(w, succ, pred)
		// log log n, with log n clamped at 1 so n = 1 gives 0, not NaN.
		loglog := math.Log2(math.Max(1, math.Log2(float64(n))))
		predicted = float64(n)/float64(p*b) + math.Sqrt(float64(n)/float64(p)*loglog)

	case "cc":
		w = no.NewWorld(n, p, b)
		adj := make([][]int, n)
		for _, e := range randomEdges(n, 2*n, rng) {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		noalgo.ConnectedComponents(w, adj)
		nn := float64(3 * n)
		predicted = nn/float64(p*b) + math.Sqrt(nn/float64(p))*math.Log2(nn)

	case "ngep", "ngep-d", "mm":
		side := intSqrt(n)
		pes := side * side / 4
		if pes < p {
			pes = p
		}
		w = no.NewWorld(pes, p, b)
		e := &nogep.Engine{W: w, Spec: gep.Floyd(), UseDStar: algo != "ngep-d"}
		in := make([]float64, side*side)
		for i := range in {
			in[i] = rng.Float64()
		}
		if algo == "mm" {
			e.Spec = gep.MulAdd()
			e.RunMatMul(side, make([]float64, side*side), in, in)
		} else {
			e.RunGEP(side, in)
		}
		predicted = float64(side*side) / (math.Sqrt(float64(p)) * float64(b))
	}
	res = NOResult{
		Algo: algo, N: n, P: p, B: b,
		Comm: w.Comm(), Predicted: predicted,
		Comp: w.Computation(), Supersteps: w.Supersteps(),
	}
	if predicted > 0 {
		res.Ratio = float64(res.Comm) / predicted
	}
	// D-BSP with a geometric g vector and uniform blocks.
	if pp := w.P; pp&(pp-1) == 0 && pp > 1 {
		logP := 0
		for 1<<logP < pp {
			logP++
		}
		g := make([]float64, logP)
		bs := make([]int64, logP)
		for i := range g {
			g[i] = float64(int64(1) << uint(logP-i)) // farther clusters cost more
			bs[i] = int64(b)
		}
		res.DBSPTime = w.DBSPTime(g, bs)
	}
	return res, nil
}

// ---- shared input builders ----

func randMat(s *core.Session, rng *rand.Rand, side int) core.Mat {
	m := s.NewMat(side, side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			v := rng.Float64() + 0.5
			if i == j {
				v += float64(2 * side)
			}
			s.PokeM(m, i, j, v)
		}
	}
	return m
}

func randomEdges(n, m int, rng *rand.Rand) [][2]int {
	seen := map[[2]int]bool{}
	var edges [][2]int
	for len(edges) < m && len(edges) < n*(n-1)/2 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return edges
}

// checkSize refuses an input size algo cannot take: n < 1, or an n that is
// not a perfect square for an algo, of either model, that builds a side x
// side matrix or grid from n = side² words.
func checkSize(algo string, n int) error {
	if n < 1 {
		return fmt.Errorf("input size n = %d, want n >= 1", n)
	}
	switch algo {
	case "mt", "mt-naive", "mm", "mm-tiled", "gep", "gep-ref", "spmdv", "spmdv-rand", "ngep", "ngep-d":
		if side := intSqrt(n); side*side != n {
			return fmt.Errorf("input size n = %d is not a perfect square, which %s needs as side x side", n, algo)
		}
	}
	return nil
}

func intSqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// logBase returns max(1, log_c(w)).
func logBase(c, w float64) float64 {
	if c <= 1 {
		return 1
	}
	l := math.Log(w) / math.Log(c)
	if l < 1 {
		return 1
	}
	return l
}
