package core

// Engine-level tests for the parallel-rounds backend (WithParallelRounds):
// full runs on identical machines, serial vs phase-split, must agree on
// every observable the determinism contract freezes — Steps, the complete
// machine snapshot, placements, steals and the heap contents — alone, under
// every scheduler option, through the deprecated WithParallel name, and on
// the failure path.  These run under -race in CI: the speculation
// phase is the only place the engine lets several strands execute at the
// same real instant, so the race detector doubles as a proof that the
// fan-in really has no shared mutable state.

import (
	"errors"
	"reflect"
	"testing"

	"oblivhm/internal/hm"
)

// parallelWorkload is a representative engine shape: binary SB recursion
// with PFor leaves over a shared array, enough strands to keep several
// cores busy.
func parallelWorkload(s *Session) func(*Ctx) {
	v := s.NewI64(1 << 12)
	var rec func(c *Ctx, lo, hi int64, space int64)
	rec = func(c *Ctx, lo, hi, space int64) {
		if hi-lo <= 1<<8 {
			c.PFor(int(hi-lo), 1, func(cc *Ctx, i0, i1 int) {
				for i := i0; i < i1; i++ {
					a := v.Base + Addr(lo+int64(i))
					cc.StoreI(a, cc.LoadI(a)+lo+int64(i))
				}
			})
			return
		}
		mid := (lo + hi) / 2
		c.SpawnSB(
			Task{Space: space / 2, Fn: func(cc *Ctx) { rec(cc, lo, mid, space/2) }},
			Task{Space: space / 2, Fn: func(cc *Ctx) { rec(cc, mid, hi, space/2) }},
		)
	}
	return func(c *Ctx) { rec(c, 0, 1<<12, 1<<14) }
}

// tickHeavyWorkload runs long pure stretches (ticks + array walks) between
// rare forks — the best case for speculation, where epochs should span many
// rounds and nearly all execution happens on the worker threads.  Each task
// owns a disjoint 128-word range: concurrently runnable strands of a
// fork-join program must have disjoint footprints (the race-freedom the
// whole simulator assumes), and the speculation phase really does run them
// at the same real instant.
func tickHeavyWorkload(s *Session) func(*Ctx) {
	v := s.NewI64(1 << 10)
	return func(c *Ctx) {
		c.SpawnCGCSB(1<<11, 8, func(cc *Ctx, idx int) {
			base := v.Base + Addr(idx<<7)
			for i := 0; i < 1<<10; i++ {
				a := base + Addr(i%(1<<7))
				cc.StoreI(a, cc.LoadI(a)+int64(idx))
				cc.Tick(3)
			}
		})
		for i := 0; i < 256; i++ {
			c.StoreI(v.Base+Addr(i), c.LoadI(v.Base+Addr(i))+1)
		}
	}
}

// forkHeavyWorkload serializes constantly (single-task SB forks every few
// operations) — the worst case, where epochs degenerate to a round or two
// and the engine must still replay the exact serial schedule.
func forkHeavyWorkload(s *Session) func(*Ctx) {
	v := s.NewI64(512)
	var rec func(c *Ctx, lo Addr, d int)
	rec = func(c *Ctx, lo Addr, d int) {
		if d == 0 {
			// Each of the 64 leaves owns the disjoint 8-word range [lo, lo+8).
			for j := 0; j < 8; j++ {
				c.StoreI(v.Base+lo+Addr(j), c.LoadI(v.Base+lo+Addr(j))+1)
			}
			return
		}
		half := Addr(4) << uint(d) // child subtree width: 8<<(d-1) words
		c.SpawnSB(
			Task{Space: int64(64 << uint(d%3)), Fn: func(cc *Ctx) { rec(cc, lo, d-1) }},
			Task{Space: int64(64 << uint(d%3)), Fn: func(cc *Ctx) { rec(cc, lo+half, d-1) }},
		)
	}
	return func(c *Ctx) { rec(c, 0, 6) }
}

// pforHeavyWorkload is the admission-surviving speculation showcase: the
// parent forks a chunk to every sibling core and then runs its own chunk —
// fork, then a long pure stretch, then the join.  While speculating, the
// parent defers the chunk placements (deferFork) and keeps recording pure
// rounds, so the whole fan-out phase stays inside one epoch; the repeated
// outer rounds re-fork from a front strand that is usually mid-speculation.
func pforHeavyWorkload(s *Session) func(*Ctx) {
	v := s.NewI64(1 << 11)
	return func(c *Ctx) {
		for rep := 0; rep < 4; rep++ {
			c.PFor(1<<11, 1, func(cc *Ctx, lo, hi int) {
				for r := 0; r < 8; r++ {
					for i := lo; i < hi; i++ {
						a := v.Base + Addr(i)
						cc.StoreI(a, cc.LoadI(a)+1)
						cc.Tick(1)
					}
				}
			})
		}
	}
}

func parRoundWorkloads() map[string]func(*Session) func(*Ctx) {
	return map[string]func(*Session) func(*Ctx){
		"mixed": parallelWorkload,
		"tick":  tickHeavyWorkload,
		"fork":  forkHeavyWorkload,
		"pfor":  pforHeavyWorkload,
	}
}

// Backends under test, as option builders for a worker count.  The
// deprecated WithParallel name forwards to WithParallelRounds; prAlias and
// prComposed are the option lists the bench module still passes for its
// par2 and pr2par2 rows, kept pinned until those rows and the name go.
var (
	prOnly     = func(w int) []Opt { return []Opt{WithParallelRounds(w)} }
	prAlias    = func(w int) []Opt { return []Opt{WithParallel(w)} }
	prComposed = func(w int) []Opt { return []Opt{WithParallelRounds(w), WithParallel(w)} }
)

func checkParRoundsEquiv(t *testing.T, name string, cfg hm.Config, opts []Opt, workload func(*Session) func(*Ctx), backend func(int) []Opt) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		serial := runEquiv(cfg, 1<<15, opts, workload, false)
		for _, w := range []int{2, 4, 8} {
			popts := append(append([]Opt{}, opts...), backend(w)...)
			par := runEquiv(cfg, 1<<15, popts, workload, false)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("workers=%d diverged from serial:\nserial   %+v\nparallel %+v", w, serial, par)
			}
		}
	})
}

// TestParallelRoundsMatchSerial: the base matrix — machine shapes ×
// workloads × scheduler options, parallel-rounds alone.
func TestParallelRoundsMatchSerial(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range parRoundWorkloads() {
			checkParRoundsEquiv(t, mname+"/"+wname, cfg, nil, wl, prOnly)
		}
		checkParRoundsEquiv(t, mname+"/steal", cfg, []Opt{WithStealing()}, parallelWorkload, prOnly)
		checkParRoundsEquiv(t, mname+"/flat", cfg, []Opt{WithFlatScheduler()}, parallelWorkload, prOnly)
		checkParRoundsEquiv(t, mname+"/q8", cfg, []Opt{WithQuantum(8)}, parallelWorkload, prOnly)
	}
}

// TestParallelRoundsComposed: WithParallelRounds followed by the deprecated
// WithParallel must still match the fully serial run.
func TestParallelRoundsComposed(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range parRoundWorkloads() {
			checkParRoundsEquiv(t, mname+"/"+wname, cfg, nil, wl, prComposed)
		}
		checkParRoundsEquiv(t, mname+"/steal", cfg, []Opt{WithStealing()}, parallelWorkload, prComposed)
	}
}

// TestParallelBackendMatchesSerial: the deprecated WithParallel name alone
// across machine shapes and scheduler options.
func TestParallelBackendMatchesSerial(t *testing.T) {
	for mname, cfg := range equivMachines() {
		checkParRoundsEquiv(t, mname, cfg, nil, parallelWorkload, prAlias)
		checkParRoundsEquiv(t, mname+"/steal", cfg, []Opt{WithStealing()}, parallelWorkload, prAlias)
		checkParRoundsEquiv(t, mname+"/flat", cfg, []Opt{WithFlatScheduler()}, parallelWorkload, prAlias)
		checkParRoundsEquiv(t, mname+"/q8", cfg, []Opt{WithQuantum(8)}, parallelWorkload, prAlias)
	}
}

// TestParallelBackendUnderChaos: the deprecated WithParallel name under
// chaos lands on the chaos-only schedule, like WithParallelRounds does.
func TestParallelBackendUnderChaos(t *testing.T) {
	cfg := hm.HM4(4, 4)
	for seed := int64(0); seed < 4; seed++ {
		serial := runEquiv(cfg, 1<<15, []Opt{WithChaos(seed)}, parallelWorkload, false)
		par := runEquiv(cfg, 1<<15, []Opt{WithChaos(seed), WithParallel(4)}, parallelWorkload, false)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("seed %d: chaos schedule diverged under WithParallel", seed)
		}
	}
}

// TestParallelBackendRepeatedRuns: one session opened with the deprecated
// WithParallel name, several cold runs with identical metrics.
func TestParallelBackendRepeatedRuns(t *testing.T) {
	m := hm.MustMachine(hm.MC3(8))
	s := NewSim(m, WithParallel(4))
	root := parallelWorkload(s)
	first := s.RunCold(1<<15, root)
	for i := 0; i < 3; i++ {
		again := s.RunCold(1<<15, root)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged from the first cold run:\nfirst %+v\nagain %+v", i+2, first, again)
		}
	}
}

// TestParallelRoundsMatchReference: parallel-rounds runs against the
// reference engine (the seed schedule, every fast path disabled).  The
// serial fast path is already pinned to the reference by the Equiv suite;
// comparing the parallel backend to the reference DIRECTLY is the
// observational-equivalence proof for bulkCommit — the collapsed
// pop/flush/requeue turns must be indistinguishable from the reference
// engine's per-round decisions on every frozen observable.
func TestParallelRoundsMatchReference(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range parRoundWorkloads() {
			t.Run(mname+"/"+wname, func(t *testing.T) {
				ref := runEquiv(cfg, 1<<15, nil, wl, true)
				for _, w := range []int{2, 4, 8} {
					par := runEquiv(cfg, 1<<15, []Opt{WithParallelRounds(w)}, wl, false)
					if !reflect.DeepEqual(ref, par) {
						t.Errorf("workers=%d diverged from reference:\nreference %+v\nparallel  %+v", w, ref, par)
					}
				}
			})
		}
	}
}

// TestParallelRoundsSpecFail drives the front-stability invariant directly:
// the condition is impossible by construction, so the test-only prSpecHook
// corrupts a run queue right after an epoch arms — rotating the speculator
// from the front to the back — and the commit walk must surface the typed
// *InvariantError with every speculator drained, not silently corrupt the
// schedule.
func TestParallelRoundsSpecFail(t *testing.T) {
	m := hm.MustMachine(hm.MC3(8))
	s := NewSim(m, WithParallelRounds(4))
	v := s.NewI64(1 << 10)
	root := func(c *Ctx) {
		// 16 uniform tasks over 8 cores: two strands per queue, so rotating
		// a queue genuinely changes its front.
		c.SpawnCGCSB(64, 16, func(cc *Ctx, idx int) {
			for i := 0; i < 512; i++ {
				a := v.Base + Addr(idx<<6+i%64)
				cc.StoreI(a, cc.LoadI(a)+1)
				cc.Tick(2)
			}
		})
	}
	corrupted := false
	s.eng.prSpecHook = func() {
		if corrupted {
			return
		}
		e := s.eng
		for c := range e.runq {
			if e.specOf[c] != nil && e.runq[c].size() >= 2 {
				e.runq[c].pushBack(e.runq[c].popFront())
				corrupted = true
				return
			}
		}
	}
	_, err := s.TryRunCold(1<<15, root)
	if !corrupted {
		t.Fatal("hook never found a speculator with queue depth >= 2 to corrupt")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("expected *InvariantError, got %v", err)
	}
	if ie.Name != "parallel-rounds-front" {
		t.Errorf("invariant name = %q, want parallel-rounds-front", ie.Name)
	}
	if s.eng.nspec != 0 {
		t.Errorf("nspec = %d after specFail, want 0 (speculators drained)", s.eng.nspec)
	}
	for c, st := range s.eng.specOf {
		if st != nil {
			t.Errorf("specOf[%d] still set after specFail", c)
		}
	}
}

// TestParallelRoundsUnderChaos: chaos runs serialize the whole loop (the
// draw stream is order-sensitive), so WithChaos + WithParallelRounds must be
// byte-identical to WithChaos alone — the documented fallback.
func TestParallelRoundsUnderChaos(t *testing.T) {
	cfg := hm.HM4(4, 4)
	for seed := int64(1); seed <= 4; seed++ {
		serial := runEquiv(cfg, 1<<15, []Opt{WithChaos(seed)}, parallelWorkload, false)
		par := runEquiv(cfg, 1<<15, []Opt{WithChaos(seed), WithParallelRounds(4)}, parallelWorkload, false)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("seed %d: chaos schedule diverged under WithParallelRounds", seed)
		}
	}
}

// TestParallelRoundsRepeatedRuns: one session, several cold runs — epoch
// state must reset completely between runs.
func TestParallelRoundsRepeatedRuns(t *testing.T) {
	m := hm.MustMachine(hm.MC3(8))
	s := NewSim(m, WithParallelRounds(4))
	root := parallelWorkload(s)
	first := s.RunCold(1<<15, root)
	for i := 0; i < 3; i++ {
		again := s.RunCold(1<<15, root)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged from the first cold run:\nfirst %+v\nagain %+v", i+2, first, again)
		}
	}
}

// TestParallelRoundsFailure: a strand panicking inside a speculative phase
// must surface as the same *RunError the serial engine reports — same core,
// anchor and label — at the same virtual time.
func TestParallelRoundsFailure(t *testing.T) {
	build := func(opts ...Opt) (*Session, func(*Ctx)) {
		m := hm.MustMachine(hm.HM4(4, 4))
		s := NewSim(m, opts...)
		v := s.NewI64(256)
		root := func(c *Ctx) {
			c.SpawnCGCSB(1<<10, 8, func(cc *Ctx, idx int) {
				for i := 0; i < 200; i++ {
					cc.StoreI(v.Base+Addr(idx<<5+i%32), int64(i))
				}
				if idx == 5 {
					cc.LoadU(Addr(1 << 40)) // out of heap: *AddressError
				}
				for i := 0; i < 200; i++ {
					cc.Tick(1)
				}
			})
		}
		return s, root
	}

	s1, r1 := build()
	_, err1 := s1.TryRunCold(1<<15, r1)
	s2, r2 := build(WithParallelRounds(4))
	_, err2 := s2.TryRunCold(1<<15, r2)

	var re1, re2 *RunError
	if !errors.As(err1, &re1) || !errors.As(err2, &re2) {
		t.Fatalf("expected *RunError from both runs, got serial=%v parallel=%v", err1, err2)
	}
	if re1.Core != re2.Core || re1.Label != re2.Label ||
		re1.AnchorLevel != re2.AnchorLevel || re1.AnchorIndex != re2.AnchorIndex {
		t.Errorf("failure reports diverged:\nserial   %+v\nparallel %+v", re1, re2)
	}
	if s1.eng.clock != s2.eng.clock {
		t.Errorf("failure clock diverged: serial %d, parallel %d", s1.eng.clock, s2.eng.clock)
	}
	// Accesses flushed up to the failing round must match: speculated chunks
	// beyond it are discarded uncounted.
	if a1, a2 := s1.Machine().Accesses, s2.Machine().Accesses; a1 != a2 {
		t.Errorf("accesses at failure diverged: serial %d, parallel %d", a1, a2)
	}
}

// TestParallelRoundsWorkerCaps: workers <= 0 resolves to GOMAXPROCS and a
// single worker disables the backend (an epoch needs at least two
// speculators to exist).
func TestParallelRoundsWorkerCaps(t *testing.T) {
	m := hm.MustMachine(hm.MC3(8))
	s := NewSim(m, WithParallelRounds(0))
	if s.eng.prWorkers < 1 {
		t.Errorf("workers=0 should resolve to GOMAXPROCS, got %d", s.eng.prWorkers)
	}
	serial := runEquiv(hm.MC3(8), 1<<15, nil, parallelWorkload, false)
	one := runEquiv(hm.MC3(8), 1<<15, []Opt{WithParallelRounds(1)}, parallelWorkload, false)
	if !reflect.DeepEqual(serial, one) {
		t.Errorf("workers=1 must run the serial path unchanged")
	}
}
