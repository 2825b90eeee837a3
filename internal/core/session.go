// Package core implements the multicore-oblivious runtime of Chowdhury,
// Silvestri, Blakeley and Ramachandran (IPDPS 2010): a run-time scheduler
// that interprets the paper's three scheduler hints —
//
//   - CGC (coarse-grained contiguous) for parallel for loops,
//   - SB (space-bound) for recursive fork-join tasks with declared space
//     bounds, and
//   - CGC⇒SB for recursive forks with large fan-out,
//
// on top of either a simulated HM machine (package hm; deterministic
// virtual-time execution with per-level cache-miss accounting) or native
// goroutines (real execution, for correctness checks and wall-clock
// benchmarks).
//
// The obliviousness boundary is the Ctx type: algorithm code receives a
// *Ctx and can only issue memory accesses and hints through it.  Every
// machine parameter (p, h, C_i, B_i) is consumed exclusively by the
// scheduler behind that boundary, exactly as in the paper's model.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"oblivhm/internal/hm"
)

// Addr is a word address in the session's shared memory.
type Addr = hm.Addr

// Session owns a memory space and an executor.  Create one with NewSim (to
// run on a simulated HM machine) or NewNative (to run on real goroutines),
// allocate arrays, then call Run one or more times.
type Session struct {
	mach    *hm.Machine // nil in native mode
	eng     *engine     // nil in native mode
	nmem    *nativeMem  // native backing store
	workers int         // native parallelism
	gov     *governor   // native goroutine governor

	nmu   sync.Mutex // guards nfail (native goroutines run concurrently)
	nfail any        // first panic recovered from a native worker goroutine
}

// nm returns the native memory, which exists only in native sessions.
func (s *Session) nm() *nativeMem { return s.nmem }

// Opt configures a session.
type Opt func(*Session)

// WithQuantum sets the virtual-time quantum (operations per core per
// lockstep round) of a simulated session.  Smaller quanta interleave cores
// more finely at higher simulation cost.  Default 32.
func WithQuantum(q int64) Opt {
	return func(s *Session) {
		if s.eng != nil && q > 0 {
			s.eng.quantum = q
		}
	}
}

// WithFlatScheduler disables anchoring above level 1: every SB / CGC⇒SB
// task is treated as if only private L1 caches existed, so tasks are spread
// across all cores with no regard for shared-cache reuse.  This is the
// "proportionate slice" baseline of paper §II used by the scheduler
// ablation experiment (E13).
func WithFlatScheduler() Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.flat = true
		}
	}
}

// WithParallel is the name of the removed cache-replay backend (DESIGN.md
// §8), kept so existing callers still build.
//
// Deprecated: use WithParallelRounds, which it forwards to.
func WithParallel(workers int) Opt { return WithParallelRounds(workers) }

// NewSim creates a session executing on the simulated HM machine m.
func NewSim(m *hm.Machine, opts ...Opt) *Session {
	s := &Session{mach: m}
	s.eng = newEngine(s, m)
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewNative creates a session executing on real goroutines.  workers <= 0
// selects GOMAXPROCS.
func NewNative(workers int) *Session {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Session{workers: workers, gov: newGovernor(4 * workers), nmem: newNativeMem()}
}

// Simulated reports whether the session runs on a simulated HM machine.
func (s *Session) Simulated() bool { return s.mach != nil }

// Machine returns the underlying simulated machine, or nil in native mode.
func (s *Session) Machine() *hm.Machine { return s.mach }

// AllocWords reserves n words of shared memory and returns the base address.
func (s *Session) AllocWords(n int64) Addr {
	if s.mach != nil {
		return s.mach.Alloc(n)
	}
	return Addr(s.nmem.alloc(n))
}

// RunStats summarises one Run.
type RunStats struct {
	Steps int64       // virtual parallel steps (simulated sessions only)
	Sim   hm.Snapshot // machine counters at the end of the run (simulated only)

	// Recovery is the degraded-mode report of a failure-injected run
	// (WithFailures): dead cores, migrated and re-executed strands, the
	// re-executed work fraction and post-failure miss deltas.  nil when
	// failure injection is off.
	Recovery *RecoveryReport
}

// Run executes root to completion.  space is the space bound of the root
// task in words (the paper's S(n)); the root is anchored at the smallest
// cache that fits it (usually the top-level cache).  Run returns the
// machine counters accumulated during this run.  On failure it panics with
// the typed error TryRun would return (the historical contract; callers
// that want errors use TryRun).
func (s *Session) Run(space int64, root func(*Ctx)) RunStats {
	st, err := s.TryRun(space, root)
	if err != nil {
		panic(err)
	}
	return st
}

// TryRun is Run with panic-to-error recovery: a panicking task surfaces as
// a *RunError naming the failing strand's core, anchor and task label; a
// wedged schedule as a *DeadlockError carrying the full forensics report;
// a violated engine invariant (WithInvariants / WithChaos) as an
// *InvariantError.
func (s *Session) TryRun(space int64, root func(*Ctx)) (RunStats, error) {
	if s.mach == nil {
		return RunStats{}, s.nativeRun(root)
	}
	s.mach.ResetStats()
	if err := s.eng.run(space, root); err != nil {
		return RunStats{}, err
	}
	s.mach.Steps = s.eng.clock
	st := RunStats{Steps: s.eng.clock, Sim: s.mach.Stats()}
	if s.eng.fail != nil {
		st.Recovery = s.eng.fail.report(s.eng)
	}
	return st, nil
}

// nativeRun executes root on the calling goroutine, recovering panics from
// it and from worker goroutines (noted by nativeSpawn/nativePFor) into a
// *RunError.
func (s *Session) nativeRun(root func(*Ctx)) (err error) {
	s.nmu.Lock()
	s.nfail = nil
	s.nmu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RunError); ok {
				err = re
				return
			}
			err = &RunError{Core: -1, Label: "native", Value: r}
		}
	}()
	root(&Ctx{s: s})
	return nil
}

// noteNativeFailure records the first panic recovered from a native worker
// goroutine; rethrowNative re-raises it on the forking goroutine once the
// fork's WaitGroup has drained.
func (s *Session) noteNativeFailure(r any) {
	s.nmu.Lock()
	if s.nfail == nil {
		s.nfail = r
	}
	s.nmu.Unlock()
}

func (s *Session) rethrowNative() {
	s.nmu.Lock()
	r := s.nfail
	s.nmu.Unlock()
	if r != nil {
		panic(&RunError{Core: -1, Label: "native", Value: r})
	}
}

// RunCold flushes all caches before running, so the measured traffic
// includes compulsory misses (the theorems assume input larger than the
// caches, i.e. a cold start).
func (s *Session) RunCold(space int64, root func(*Ctx)) RunStats {
	if s.mach != nil {
		s.mach.FlushCaches()
	}
	return s.Run(space, root)
}

// TryRunCold is RunCold with TryRun's panic-to-error recovery.
func (s *Session) TryRunCold(space int64, root func(*Ctx)) (RunStats, error) {
	if s.mach != nil {
		s.mach.FlushCaches()
	}
	return s.TryRun(space, root)
}

// governor bounds the number of live goroutines in native mode: fork sites
// spawn a real goroutine only while a token is available, otherwise they
// inline the child.  This keeps deep recursive algorithms (I-GEP forks at
// every level) from creating millions of goroutines.
type governor struct{ tokens chan struct{} }

func newGovernor(n int) *governor {
	g := &governor{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		g.tokens <- struct{}{}
	}
	return g
}

func (g *governor) tryAcquire() bool {
	select {
	case <-g.tokens:
		return true
	default:
		return false
	}
}

func (g *governor) release() { g.tokens <- struct{}{} }

func (s *Session) String() string {
	if s.mach != nil {
		return fmt.Sprintf("sim(%s)", s.mach.Cfg.String())
	}
	return fmt.Sprintf("native(workers=%d)", s.workers)
}

// WithStealing enables the work-stealing extension: a core whose run queue
// is empty may take an unstarted strand from the most loaded core.  This is
// an implementation of the paper's §VII suggestion that the hint set can be
// enhanced with a more general scheduler; it trades anchoring discipline
// (cache reuse) for load balance, and the E13-style benchmarks let the two
// be compared.
func WithStealing() Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.steal = true
		}
	}
}
