package main

import (
	_ "embed"
	"fmt"
	"math"
	"math/rand"

	"oblivhm/internal/core"
	"oblivhm/internal/gep"
	"oblivhm/internal/harness"
	"oblivhm/internal/hm"
	"oblivhm/internal/listrank"
	"oblivhm/internal/scan"
	"oblivhm/internal/sweep"
)

// backend names the engine configuration an op runs under.  Every backend
// must reproduce the serial op's frozen observables exactly.
type backend string

const (
	serial  backend = "serial"  // the default engine; grid-sweep at 2 sweep workers
	pr2     backend = "pr2"     // core.WithParallelRounds(2)
	par2    backend = "par2"    // core.WithParallel(2), the replay pipeline
	pr2par2 backend = "pr2par2" // both
	w1      backend = "w1"      // grid-sweep only: the serial grid at 1 sweep worker
)

// An op is one prepared unit of work.  Setup has built its machine and
// inputs; run is the timed part; check compares the output with a
// sequential Go reference.
type op interface {
	run() (outcome, error)
	check() error
}

// outcome is what one run reports.  sig holds the frozen observables (Steps,
// per-level MaxMisses, PlacedAt, Steals, accesses) and must be identical
// across backends; counts holds the simulated counts of countMetrics.
type outcome struct {
	work     int64
	sig      any
	counts   map[string]float64
	l1HitRat float64
}

// workload is one benchmark workload.  setup builds op seed's inputs for
// backend b; a non-nil tr additionally records the scheduler trace.
type workload struct {
	name  string
	why   string
	setup func(seed int64, b backend, tr *core.Trace) (op, error)
	// grid marks the sweep workload, whose inputs do not depend on the seed
	// and which alone has the w1 backend.
	grid bool
}

// sizes are the input sizes of the workloads and probes; the test runs the
// same code on toy ones.
type sizes struct {
	scanN, mmSide, lrN int
	gridSpec           []byte
	probeWords         int // the random probe's footprint; the sequential one streams 4x as many words
}

// gridSpec is the grid-sweep workload's embedded sweep spec.
//
//go:embed grid.json
var gridSpec []byte

var full = sizes{scanN: 1 << 20, mmSide: 128, lrN: 2048, gridSpec: gridSpec, probeWords: 1 << 20}

func workloads(sz sizes) []*workload {
	return []*workload{
		{
			name:  "scan-stream",
			why:   "prefix sums on hm4 at 4x the L3: streaming, mostly L1 hits, so the hm cache walk dominates",
			setup: func(seed int64, b backend, tr *core.Trace) (op, error) { return setupScan(sz.scanN, seed, b, tr) },
		},
		{
			name:  "mm-forkjoin",
			why:   "I-GEP matrix multiply on mc3: deep space-bound fork-join, so the engine and Ctx charge path dominate",
			setup: func(seed int64, b backend, tr *core.Trace) (op, error) { return setupMM(sz.mmSide, seed, b, tr) },
		},
		{
			name:  "lr-irregular",
			why:   "list ranking of a random permutation on mc3: pointer chasing drives the hm miss, evict and invalidate path",
			setup: func(seed int64, b backend, tr *core.Trace) (op, error) { return setupLR(sz.lrN, seed, b, tr) },
		},
		{
			name:  "grid-sweep",
			why:   "72 short cold runs through sweep at 2 workers: machine construction, input generation and the sweep fan-out dominate",
			setup: func(seed int64, b backend, tr *core.Trace) (op, error) { return setupGrid(sz.gridSpec, b, tr) },
			grid:  true,
		},
	}
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- the single-run MO workloads ----

// moOp is one cold run of an MO algorithm on a fresh session.
type moOp struct {
	s      *core.Session
	space  int64
	root   func(*core.Ctx)
	verify func() error
}

func (o *moOp) run() (outcome, error) {
	st, err := o.s.TryRunCold(o.space, o.root)
	if err != nil {
		return outcome{}, err
	}
	return moOutcome(o.s, st), nil
}

func (o *moOp) check() error { return o.verify() }

func backendOpts(b backend) ([]core.Opt, error) {
	switch b {
	case serial:
		return nil, nil
	case pr2:
		return []core.Opt{core.WithParallelRounds(2)}, nil
	case par2:
		return []core.Opt{core.WithParallel(2)}, nil
	case pr2par2:
		return []core.Opt{core.WithParallelRounds(2), core.WithParallel(2)}, nil
	}
	return nil, fmt.Errorf("backend %s does not apply to a single run", b)
}

func newSession(machine string, b backend, tr *core.Trace) (*core.Session, error) {
	opts, err := backendOpts(b)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		opts = append(opts, core.WithTrace(tr))
	}
	cfg, err := harness.Machine(machine)
	if err != nil {
		return nil, err
	}
	m, err := hm.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewSim(m, opts...), nil
}

// moSig is the frozen observable tuple of one run.
type moSig struct {
	Steps, Work, Steals int64
	MaxMisses           []int64
	PlacedAt            []int
}

func moOutcome(s *core.Session, st core.RunStats) outcome {
	sig := moSig{Steps: st.Steps, Work: st.Sim.Accesses, Steals: s.Steals()}
	counts := map[string]float64{
		"hm.accesses": float64(st.Sim.Accesses),
		"core.vsteps": float64(st.Steps),
		"core.steals": float64(s.Steals()),
	}
	for _, l := range st.Sim.Levels {
		sig.MaxMisses = append(sig.MaxMisses, l.MaxMisses)
		sig.PlacedAt = append(sig.PlacedAt, s.PlacedAt(l.Level))
		counts[fmt.Sprintf("hm.L%d.max_misses", l.Level)] = float64(l.MaxMisses)
		counts[fmt.Sprintf("hm.L%d.total_misses", l.Level)] = float64(l.TotalMisses)
		counts[fmt.Sprintf("hm.L%d.invalidations", l.Level)] = float64(l.Invalid)
		counts[fmt.Sprintf("core.placed.L%d", l.Level)] = float64(s.PlacedAt(l.Level))
	}
	var hits, misses int64
	for _, c := range s.Machine().ByLevel[0] {
		hits += c.Stats.Hits
		misses += c.Stats.Misses
	}
	out := outcome{work: st.Sim.Accesses, sig: sig, counts: counts}
	if hits+misses > 0 {
		out.l1HitRat = float64(hits) / float64(hits+misses)
	}
	return out
}

// scanInput is the seeded input of scan-stream; check regenerates it rather
// than keeping a host copy alive next to the session.
func scanInput(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Intn(1 << 20))
	}
	return v
}

func setupScan(n int, seed int64, b backend, tr *core.Trace) (op, error) {
	s, err := newSession("hm4", b, tr)
	if err != nil {
		return nil, err
	}
	v := s.NewI64(n)
	for i, x := range scanInput(n, seed) {
		s.PokeI(v, i, x)
	}
	return &moOp{
		s:     s,
		space: int64(2 * n),
		root:  func(c *core.Ctx) { scan.PrefixSumsI64(c, v) },
		verify: func() error {
			var sum int64
			for i, x := range scanInput(n, seed) {
				sum += x
				if got := s.PeekI(v, i); got != sum {
					return fmt.Errorf("scan: prefix[%d] = %d, want %d", i, got, sum)
				}
			}
			return nil
		},
	}, nil
}

// mmInput returns the seeded row-major inputs A and B of mm-forkjoin.
func mmInput(side int, seed int64) (a, b []float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]float64, side*side)
	b = make([]float64, side*side)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	return a, b
}

func setupMM(side int, seed int64, be backend, tr *core.Trace) (op, error) {
	s, err := newSession("mc3", be, tr)
	if err != nil {
		return nil, err
	}
	a, b := mmInput(side, seed)
	A, B, C := s.NewMat(side, side), s.NewMat(side, side), s.NewMat(side, side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			s.PokeM(A, i, j, a[i*side+j])
			s.PokeM(B, i, j, b[i*side+j])
		}
	}
	return &moOp{
		s:     s,
		space: gep.MatMulSpace(side),
		root:  func(c *core.Ctx) { gep.MatMul(c, C, A, B) },
		verify: func() error {
			a, b := mmInput(side, seed)
			row := make([]float64, side)
			for i := 0; i < side; i++ {
				for j := range row {
					row[j] = 0
				}
				for k := 0; k < side; k++ {
					aik := a[i*side+k]
					for j := 0; j < side; j++ {
						row[j] += aik * b[k*side+j]
					}
				}
				for j, want := range row {
					// I-GEP sums in another order than the reference loop.
					if got := s.PeekM(C, i, j); math.Abs(got-want) > 1e-9*math.Abs(want) {
						return fmt.Errorf("mm: C[%d][%d] = %v, want %v", i, j, got, want)
					}
				}
			}
			return nil
		},
	}, nil
}

func setupLR(n int, seed int64, b backend, tr *core.Trace) (op, error) {
	s, err := newSession("mc3", b, tr)
	if err != nil {
		return nil, err
	}
	l := listrank.FromPerm(s, rand.New(rand.NewSource(seed)).Perm(n))
	rank := s.NewI64(n)
	return &moOp{
		s:     s,
		space: listrank.SpaceBound(n),
		root:  func(c *core.Ctx) { listrank.MOLR(c, l, rank) },
		verify: func() error {
			// The list visits perm in order, so perm[i] is i links from the head.
			for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
				if got, want := s.PeekI(rank, v), int64(n-1-i); got != want {
					return fmt.Errorf("lr: rank[%d] = %d, want %d", v, got, want)
				}
			}
			return nil
		},
	}, nil
}

// ---- grid-sweep ----

// gridOp is one pass over the embedded sweep grid.  With a trace it runs the
// cells one by one through harness.RunMO instead, since sweep rows carry no
// trace.
type gridOp struct {
	spec    *sweep.Spec
	cells   int
	workers int
	tr      *core.Trace
	rows    []sweep.Row
}

// setupGrid parses, validates and expands the spec.  Every backend but the
// serial and w1 ones swaps itself in for the "default" option set, and runs
// at one sweep worker so that no more than two simulation threads run.
func setupGrid(specJSON []byte, b backend, tr *core.Trace) (op, error) {
	spec, err := sweep.Parse(specJSON)
	if err != nil {
		return nil, err
	}
	o := &gridOp{spec: spec, workers: 1, tr: tr}
	switch b {
	case serial:
		o.workers = 2
	case w1:
	default:
		for i, name := range spec.Options {
			if name == "default" {
				spec.Options[i] = string(b)
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	o.cells = len(sweep.Expand(spec))
	return o, nil
}

func (o *gridOp) run() (outcome, error) {
	if o.tr != nil {
		return o.runTraced()
	}
	rows, err := sweep.Collect(o.spec, o.workers)
	if err != nil {
		return outcome{}, err
	}
	o.rows = rows
	return gridOutcome(rows), nil
}

func (o *gridOp) runTraced() (outcome, error) {
	for _, c := range sweep.Expand(o.spec) {
		opts, err := harness.OptionSet(c.Options)
		if err != nil {
			return outcome{}, err
		}
		res, err := harness.RunMO(c.Algo, c.Machine, c.N, append(opts, core.WithTrace(o.tr))...)
		row := sweep.Row{Config: c, Steps: res.Steps, Work: res.Work, Steals: res.Steals, PlacedAt: res.PlacedAt, Levels: res.Levels}
		if err != nil {
			row.Err = err.Error()
		}
		o.rows = append(o.rows, row)
	}
	return gridOutcome(o.rows), nil
}

func (o *gridOp) check() error {
	if len(o.rows) != o.cells {
		return fmt.Errorf("grid: %d rows for %d cells", len(o.rows), o.cells)
	}
	for _, r := range o.rows {
		if r.Err != "" {
			return fmt.Errorf("grid: %s: %s", r.Key(), r.Err)
		}
	}
	return nil
}

// rowSig is a row's frozen observables without its option-set name, so a
// pass under another backend compares equal to the serial pass.
type rowSig struct {
	Algo, Machine       string
	N                   int
	Steps, Work, Steals int64
	PlacedAt            []int
	MaxMisses           []int64
}

// gridOutcome sums the rows' counts.  Sweep rows carry per-level MaxMisses
// only, so the total-miss and invalidation counts and the L1 hit ratio are
// left out (and read 0) on this workload.
func gridOutcome(rows []sweep.Row) outcome {
	var out outcome
	sigs := make([]rowSig, len(rows))
	out.counts = map[string]float64{}
	for i, r := range rows {
		sg := rowSig{Algo: r.Algo, Machine: r.Machine, N: r.N, Steps: r.Steps, Work: r.Work, Steals: r.Steals, PlacedAt: r.PlacedAt}
		for _, l := range r.Levels {
			sg.MaxMisses = append(sg.MaxMisses, l.MaxMisses)
			out.counts[fmt.Sprintf("hm.L%d.max_misses", l.Level)] += float64(l.MaxMisses)
		}
		for k, p := range r.PlacedAt {
			out.counts[fmt.Sprintf("core.placed.L%d", k+1)] += float64(p)
		}
		sigs[i] = sg
		out.work += r.Work
		out.counts["hm.accesses"] += float64(r.Work)
		out.counts["core.vsteps"] += float64(r.Steps)
		out.counts["core.steals"] += float64(r.Steals)
	}
	out.sig = sigs
	return out
}
