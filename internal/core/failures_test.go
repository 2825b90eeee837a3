package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"oblivhm/internal/hm"
)

// failWorkload is a restartable (idempotent) fork-join workload: every write
// is a pure function of the element index, so re-executing any killed strand
// from its spawn closure reproduces the same heap.  It mixes PFor chunks,
// recursive SB forks and enough Tick weight that runs span many rounds —
// failure events at small horizons always land mid-run.
func failWorkload(s *Session, n int) (I64, func(*Ctx)) {
	v := s.NewI64(n)
	var rec func(c *Ctx, lo, hi int)
	rec = func(c *Ctx, lo, hi int) {
		if hi-lo <= n/8 {
			c.PFor(hi-lo, 1, func(cc *Ctx, a, b int) {
				for i := a; i < b; i++ {
					cc.Tick(4)
					v.Set(cc, lo+i, int64(3*(lo+i)+1))
				}
			})
			return
		}
		mid := (lo + hi) / 2
		c.SpawnSB(
			Task{Space: int64(mid-lo) * 2, Label: "fw-left", Fn: func(cc *Ctx) { rec(cc, lo, mid) }},
			Task{Space: int64(hi-mid) * 2, Label: "fw-right", Fn: func(cc *Ctx) { rec(cc, mid, hi) }},
		)
	}
	return v, func(c *Ctx) {
		// The opening root-level PFor parks a long-lived chunk strand on
		// every core, so small-horizon failure events always find in-flight
		// work on whichever core they hit.
		c.PFor(n, 1, func(cc *Ctx, a, b int) {
			for i := a; i < b; i++ {
				cc.Tick(4)
				v.Set(cc, i, int64(3*i+1))
			}
		})
		rec(c, 0, n)
	}
}

func checkFailHeap(t *testing.T, s *Session, v I64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := s.PeekI(v, i); got != int64(3*i+1) {
			t.Fatalf("v[%d] = %d, want %d (lost or corrupted work)", i, got, 3*i+1)
		}
	}
}

// failOutcome is everything a failure-injected run freezes.
type failOutcome struct {
	Steps    int64
	Sim      hm.Snapshot
	Recovery RecoveryReport
	Err      string
}

func runFailure(t *testing.T, cfg hm.Config, n int, opts ...Opt) failOutcome {
	t.Helper()
	m := hm.MustMachine(cfg)
	s := NewSim(m, opts...)
	v, root := failWorkload(s, n)
	// Anchor the root at the top-level cache so the opening PFor spans every
	// core — kills on any core then always find work to recover.
	space := cfg.Levels[len(cfg.Levels)-1].Capacity
	if space < int64(2*n) {
		space = int64(2 * n)
	}
	st, err := s.TryRunCold(space, root)
	if err != nil {
		return failOutcome{Err: err.Error()}
	}
	checkFailHeap(t, s, v, n)
	out := failOutcome{Steps: st.Steps, Sim: st.Sim}
	if st.Recovery != nil {
		out.Recovery = *st.Recovery
	}
	return out
}

var failPlan = FailurePlan{KillCores: 1, HorizonRounds: 8}

func TestFailuresKillAndRecover(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  hm.Config
	}{
		{"mc3", hm.MC3(8)}, {"hm4", hm.HM4(4, 4)}, {"hm5", hm.HM5(2, 2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				out := runFailure(t, tc.cfg, 2048, WithFailures(seed, failPlan))
				if out.Err != "" {
					t.Fatalf("seed %d: run failed: %s", seed, out.Err)
				}
				r := out.Recovery
				if len(r.DeadCores) != 1 {
					t.Fatalf("seed %d: dead cores %v, want exactly 1", seed, r.DeadCores)
				}
				if r.KilledStrands+r.MigratedStrands == 0 {
					t.Errorf("seed %d: a core died but nothing was migrated or killed", seed)
				}
				if r.ReexecStrands < r.KilledStrands {
					t.Errorf("seed %d: reexec %d < killed %d", seed, r.ReexecStrands, r.KilledStrands)
				}
				if r.TotalOps <= 0 {
					t.Errorf("seed %d: TotalOps = %d, want > 0", seed, r.TotalOps)
				}
				if fr := r.ReexecWorkFraction(); fr < 0 || fr >= 1 {
					t.Errorf("seed %d: re-exec work fraction %v out of range", seed, fr)
				}
			}
		})
	}
}

// TestFailuresDeterministic: same config + seed → byte-identical schedule,
// recovery actions and metrics; different seeds pick different victims at
// least once.
func TestFailuresDeterministic(t *testing.T) {
	plan := FailurePlan{KillCores: 2, Stragglers: 2, SlowFactor: 3, CacheFaults: 2, HorizonRounds: 16}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		a := runFailure(t, hm.MC3(8), 2048, WithFailures(seed, plan))
		b := runFailure(t, hm.MC3(8), 2048, WithFailures(seed, plan))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d not reproducible:\n%+v\n%+v", seed, a, b)
		}
		seen[a.Recovery.String()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("6 seeds produced %d distinct failure schedules, want variety", len(seen))
	}
}

// TestFailuresNoopPlanMatchesDefault: attaching a failure domain that never
// fires (or a watchdog under budget) must not change a single metric —
// disabling the batching fast path is observably equivalent.
func TestFailuresNoopPlanMatchesDefault(t *testing.T) {
	base := runFailure(t, hm.HM4(4, 4), 2048)
	noop := runFailure(t, hm.HM4(4, 4), 2048, WithFailures(7, FailurePlan{}))
	wd := runFailure(t, hm.HM4(4, 4), 2048, WithWatchdog(1<<20))
	if base.Steps != noop.Steps || !reflect.DeepEqual(base.Sim, noop.Sim) {
		t.Errorf("empty failure plan changed metrics: steps %d vs %d", base.Steps, noop.Steps)
	}
	if noop.Recovery.TotalOps <= 0 {
		t.Errorf("noop plan: TotalOps = %d, want > 0", noop.Recovery.TotalOps)
	}
	if len(noop.Recovery.DeadCores) != 0 || noop.Recovery.ReexecOps != 0 {
		t.Errorf("noop plan reported failures: %+v", noop.Recovery)
	}
	if !reflect.DeepEqual(base, wd) {
		t.Errorf("under-budget watchdog changed the run:\n%+v\n%+v", base, wd)
	}
}

// TestFailuresStragglersInflateMakespan: slowing cores down must cost
// virtual time but never correctness.
func TestFailuresStragglersInflateMakespan(t *testing.T) {
	base := runFailure(t, hm.MC3(8), 2048)
	slow := runFailure(t, hm.MC3(8), 2048,
		WithFailures(3, FailurePlan{Stragglers: 4, SlowFactor: 4}))
	if slow.Err != "" {
		t.Fatalf("straggler run failed: %s", slow.Err)
	}
	if len(slow.Recovery.StragglerCores) != 4 || slow.Recovery.SlowFactor != 4 {
		t.Fatalf("straggler report wrong: %+v", slow.Recovery)
	}
	if slow.Steps <= base.Steps {
		t.Errorf("4 cores at 1/4 speed did not inflate makespan: %d vs %d", slow.Steps, base.Steps)
	}
}

// TestFailuresCacheFaults: transient faults drop resident blocks, count on
// the machine, and never violate miss monotonicity (composed with the
// invariant checker).
func TestFailuresCacheFaults(t *testing.T) {
	out := runFailure(t, hm.HM4(4, 4), 2048,
		WithFailures(5, FailurePlan{CacheFaults: 6, HorizonRounds: 32}), WithInvariants())
	if out.Err != "" {
		t.Fatalf("fault run failed: %s", out.Err)
	}
	if out.Recovery.CacheFaults != 6 {
		t.Fatalf("fired %d faults, want 6", out.Recovery.CacheFaults)
	}
	if out.Recovery.FirstFailureClock <= 0 {
		t.Errorf("FirstFailureClock = %d, want > 0", out.Recovery.FirstFailureClock)
	}
	if len(out.Recovery.PostFailureMissDelta) == 0 {
		t.Errorf("no post-failure miss deltas recorded")
	}
}

// TestFailuresComposeWithChaos: chaos perturbation + failure injection stay
// jointly deterministic per seed pair, with invariants checked every round.
func TestFailuresComposeWithChaos(t *testing.T) {
	plan := FailurePlan{KillCores: 1, CacheFaults: 2, HorizonRounds: 16}
	for seed := int64(1); seed <= 3; seed++ {
		a := runFailure(t, hm.MC3(8), 1024, WithChaos(seed), WithFailures(seed+10, plan))
		b := runFailure(t, hm.MC3(8), 1024, WithChaos(seed), WithFailures(seed+10, plan))
		if a.Err != "" {
			t.Fatalf("seed %d: chaos+failures run failed: %s", seed, a.Err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: chaos+failures not reproducible:\n%+v\n%+v", seed, a, b)
		}
		if len(a.Recovery.DeadCores) != 1 {
			t.Fatalf("seed %d: dead cores %v, want 1", seed, a.Recovery.DeadCores)
		}
	}
}

// TestFailuresSerializeParallelRounds: the deprecated no-op
// WithParallelRounds (legacy_test.go) leaves a failure run byte-identical.
func TestFailuresSerializeParallelRounds(t *testing.T) {
	want := runFailure(t, hm.MC3(8), 2048, WithFailures(2, failPlan))
	if got := runFailure(t, hm.MC3(8), 2048, WithFailures(2, failPlan), WithParallelRounds(2)); !reflect.DeepEqual(want, got) {
		t.Fatalf("diverged under the deprecated option:\n%+v\n%+v", want, got)
	}
}

// TestFailuresWithStealing: the dead-core skip must hold on the full-scan
// (stealing) path too — no strand is ever stolen for a dead core.
func TestFailuresWithStealing(t *testing.T) {
	out := runFailure(t, hm.MC3(8), 2048, WithFailures(4, failPlan), WithStealing())
	if out.Err != "" {
		t.Fatalf("stealing+failures run failed: %s", out.Err)
	}
	if len(out.Recovery.DeadCores) != 1 {
		t.Fatalf("dead cores %v, want 1", out.Recovery.DeadCores)
	}
}

// TestWatchdogTurnsLivelockIntoError: a run that never finishes trips the
// watchdog as a typed *FailureError carrying forensics, instead of hanging.
func TestWatchdogTurnsLivelockIntoError(t *testing.T) {
	s := NewSim(hm.MustMachine(hm.MC3(4)), WithWatchdog(64))
	_, err := s.TryRun(1<<10, func(c *Ctx) {
		for {
			c.Tick(1)
		}
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog match", err)
	}
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %T, want *FailureError", err)
	}
	if fe.Kind != "watchdog" || fe.Forensics == nil || fe.Clock <= 0 {
		t.Fatalf("watchdog error incomplete: %+v", fe)
	}
	if fe.Recovery != nil {
		t.Fatalf("watchdog without WithFailures carried a recovery report")
	}
	if !IsRunFailure(err) {
		t.Fatal("FailureError not classified as run failure")
	}
}

// TestWatchdogLargeBudgetNeverTrips: the budget is counted in rounds, so
// one too large for a clock value (2^58 rounds of quantum 32 overflow an
// int64) still means "no limit", and the run matches the unwatched one.
func TestWatchdogLargeBudgetNeverTrips(t *testing.T) {
	run := func(opts ...Opt) (RunStats, error) {
		s := NewSim(hm.MustMachine(hm.MC3(4)), opts...)
		a := s.AllocWords(64)
		return s.TryRun(1<<10, func(c *Ctx) {
			c.PFor(64, 1, func(cc *Ctx, lo, hi int) {
				for i := lo; i < hi; i++ {
					cc.StoreU(a+Addr(i), uint64(i))
				}
			})
		})
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1 << 58, 1 << 59, math.MaxInt64} {
		got, err := run(WithWatchdog(budget))
		if err != nil {
			t.Fatalf("WithWatchdog(%d): %v", budget, err)
		}
		if got.Steps != want.Steps {
			t.Errorf("WithWatchdog(%d): %d steps, want %d", budget, got.Steps, want.Steps)
		}
	}
}

// TestWatchdogWithFailuresCarriesRecovery: a watchdog trip during an
// injected run reports the recovery state accumulated so far.
func TestWatchdogWithFailuresCarriesRecovery(t *testing.T) {
	s := NewSim(hm.MustMachine(hm.MC3(8)),
		WithFailures(1, FailurePlan{KillCores: 1, HorizonRounds: 4}), WithWatchdog(64))
	_, err := s.TryRun(1<<10, func(c *Ctx) {
		c.PFor(8*64, 1, func(cc *Ctx, lo, hi int) {
			for {
				cc.Tick(1)
			}
		})
	})
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FailureError", err)
	}
	if fe.Recovery == nil {
		t.Fatal("watchdog trip under WithFailures lost the recovery report")
	}
	if len(fe.Recovery.DeadCores) != 1 {
		t.Fatalf("recovery report at trip time: %+v, want 1 dead core", fe.Recovery)
	}
}

// TestFailurePlanValidation: nonsense plans are rejected before the run as
// kind-"plan" FailureErrors.
func TestFailurePlanValidation(t *testing.T) {
	for _, plan := range []FailurePlan{
		{KillCores: -1}, {Stragglers: -2}, {SlowFactor: -1}, {CacheFaults: -3}, {HorizonRounds: -4},
	} {
		s := NewSim(hm.MustMachine(hm.MC3(4)), WithFailures(1, plan))
		_, err := s.TryRun(64, func(c *Ctx) {})
		var fe *FailureError
		if !errors.As(err, &fe) || fe.Kind != "plan" {
			t.Fatalf("plan %+v: err = %v, want plan-kind *FailureError", plan, err)
		}
		if errors.Is(err, ErrWatchdog) {
			t.Fatalf("plan error matched ErrWatchdog")
		}
	}
}

// TestFailureErrorChains: the typed-error taxonomy stays errors.Is/As
// navigable across all four failure kinds.
func TestFailureErrorChains(t *testing.T) {
	cases := []struct {
		err   error
		is    error
		chain string
	}{
		{&FailureError{Kind: "watchdog", Clock: 320, Detail: "x"}, ErrWatchdog, "watchdog"},
		{&RunError{Label: "t", Value: ErrWatchdog}, ErrWatchdog, "run-wrapping-sentinel"},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.is) {
			t.Errorf("%s: errors.Is failed for %v", tc.chain, tc.err)
		}
	}
	// As must discriminate between the failure types, never cross-match.
	var de *DeadlockError
	var ie *InvariantError
	var fe *FailureError
	werr := error(&FailureError{Kind: "watchdog"})
	if errors.As(werr, &de) || errors.As(werr, &ie) {
		t.Error("FailureError cross-matched Deadlock/Invariant")
	}
	if !errors.As(werr, &fe) {
		t.Error("FailureError failed to As-match itself")
	}
	for _, err := range []error{
		&RunError{}, &DeadlockError{}, &InvariantError{}, &FailureError{},
	} {
		if !IsRunFailure(err) {
			t.Errorf("%T not classified as run failure", err)
		}
	}
	if IsRunFailure(errors.New("misc")) {
		t.Error("plain error classified as run failure")
	}
}

// TestRecoveryReportString pins the report rendering to its load-bearing
// content: every section present, fractions formatted.
func TestRecoveryReportString(t *testing.T) {
	r := &RecoveryReport{
		Seed: 42, DeadCores: []int{3}, StragglerCores: []int{1, 5}, SlowFactor: 2,
		CacheFaults: 2, FaultedBlocks: 17, MigratedStrands: 4, KilledStrands: 2,
		ReexecStrands: 6, RecoveryRounds: 1, FirstFailureClock: 320,
		TotalOps: 1000, ReexecOps: 250, PostFailureMissDelta: []int64{10, 20, 30},
	}
	got := r.String()
	for _, want := range []string{
		"failure seed 42", "dead cores: [3]", "clock 320",
		"4 migrated", "2 killed in flight", "6 re-executed strands", "1 recovery rounds",
		"stragglers: [1 5] at 1/2 budget",
		"cache faults: 2 (17 resident blocks dropped)",
		"1000 ops total, 250 re-executed (25.00%)",
		"L1=10 L2=20 L3=30",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	if f := r.ReexecWorkFraction(); f != 0.25 {
		t.Errorf("ReexecWorkFraction = %v, want 0.25", f)
	}
	empty := &RecoveryReport{Seed: 7}
	if s := empty.String(); !strings.Contains(s, "dead cores: none") {
		t.Errorf("empty report rendering: %s", s)
	}
	if (&RecoveryReport{}).ReexecWorkFraction() != 0 {
		t.Error("zero-ops fraction not 0")
	}
}

// TestFailuresTraceEvents: failure actions appear in the trace with their
// dedicated kinds.
func TestFailuresTraceEvents(t *testing.T) {
	var tr Trace
	m := hm.MustMachine(hm.MC3(8))
	s := NewSim(m, WithTrace(&tr),
		WithFailures(1, FailurePlan{KillCores: 1, CacheFaults: 2, HorizonRounds: 8}))
	v, root := failWorkload(s, 2048)
	if _, err := s.TryRunCold(4096, root); err != nil {
		t.Fatal(err)
	}
	checkFailHeap(t, s, v, 2048)
	kinds := map[EventKind]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
	}
	if kinds[EvCoreFail] != 1 {
		t.Errorf("corefail events = %d, want 1", kinds[EvCoreFail])
	}
	if kinds[EvFault] != 2 {
		t.Errorf("fault events = %d, want 2", kinds[EvFault])
	}
	if kinds[EvMigrate]+kinds[EvReexec] == 0 {
		t.Errorf("no migrate/reexec events recorded: %v", kinds)
	}
}

// TestFailuresSingleCoreMachine: KillCores is clamped to p-1, so a
// single-core machine never loses its only core.
func TestFailuresSingleCoreMachine(t *testing.T) {
	out := runFailure(t, hm.Seq(), 512, WithFailures(9, FailurePlan{KillCores: 3, HorizonRounds: 4}))
	if out.Err != "" {
		t.Fatalf("seq run failed: %s", out.Err)
	}
	if len(out.Recovery.DeadCores) != 0 {
		t.Fatalf("single-core machine lost cores: %v", out.Recovery.DeadCores)
	}
}
