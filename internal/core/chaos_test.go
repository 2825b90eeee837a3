package core

import (
	"errors"
	"testing"

	"oblivhm/internal/hm"
)

// chaosWorkload is a recursive fork-join + CGC mix that exercises every
// spawn path (SB placement, nested fallback, CGC chunks) so chaos
// perturbation has real decisions to perturb.
func chaosWorkload(s *Session, n int) (sum int64) {
	v := s.NewI64(n)
	s.Run(int64(4*n), func(c *Ctx) {
		c.PFor(n, 1, func(cc *Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				cc.StoreI(v.Base+Addr(i), int64(i))
			}
		})
		var rec func(cc *Ctx, lo, hi int)
		rec = func(cc *Ctx, lo, hi int) {
			if hi-lo <= 8 {
				for i := lo; i < hi; i++ {
					cc.StoreI(v.Base+Addr(i), cc.LoadI(v.Base+Addr(i))*2)
				}
				return
			}
			mid := (lo + hi) / 2
			cc.SpawnSB(
				Task{Space: int64(2 * (mid - lo)), Fn: func(c2 *Ctx) { rec(c2, lo, mid) }},
				Task{Space: int64(2 * (hi - mid)), Fn: func(c2 *Ctx) { rec(c2, mid, hi) }},
			)
		}
		rec(c, 0, n)
	})
	for i := 0; i < n; i++ {
		sum += s.PeekI(v, i)
	}
	return sum
}

// TestChaosCompletesAcrossSeeds: the same workload must complete correctly
// under every chaos seed, with the per-round invariants (enabled implicitly
// by WithChaos) passing throughout — on the plain scheduler and with the
// stealing extension.
func TestChaosCompletesAcrossSeeds(t *testing.T) {
	const n = 256
	want := int64(n * (n - 1)) // sum of 2*i over [0,n)
	for seed := int64(0); seed < 16; seed++ {
		for _, opts := range [][]Opt{
			{WithChaos(seed)},
			{WithChaos(seed), WithStealing()},
			{WithChaos(seed), WithFlatScheduler()},
		} {
			s := NewSim(hm.MustMachine(hm.HM4(2, 2)), opts...)
			if got := chaosWorkload(s, n); got != want {
				t.Fatalf("seed %d opts %d: wrong result %d, want %d", seed, len(opts), got, want)
			}
		}
	}
}

// TestChaosDeterministicPerSeed: chaos is a deterministic perturbation —
// the same seed must reproduce the exact schedule (steps and misses), and
// different seeds should disagree on at least one workload (the injector
// actually does something).
func TestChaosDeterministicPerSeed(t *testing.T) {
	measure := func(seed int64) (int64, int64) {
		s := NewSim(hm.MustMachine(hm.HM4(2, 2)), WithChaos(seed))
		v := s.NewI64(512)
		st := s.RunCold(2048, func(c *Ctx) {
			c.PFor(512, 1, func(cc *Ctx, lo, hi int) {
				for i := lo; i < hi; i++ {
					cc.StoreI(v.Base+Addr(i), int64(i))
				}
			})
		})
		return st.Steps, st.Sim.Levels[0].TotalMisses
	}
	s1, m1 := measure(7)
	s2, m2 := measure(7)
	if s1 != s2 || m1 != m2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", s1, m1, s2, m2)
	}
	diverged := false
	for seed := int64(0); seed < 8 && !diverged; seed++ {
		sd, md := measure(seed)
		diverged = sd != s1 || md != m1
	}
	if !diverged {
		t.Error("8 different seeds all produced the schedule of seed 7; injector appears inert")
	}
}

// TestInvariantCheckerCatchesCorruption: the per-round checker must turn
// deliberately corrupted engine bookkeeping into an *InvariantError rather
// than silent metric drift.
func TestInvariantCheckerCatchesCorruption(t *testing.T) {
	m := hm.MustMachine(hm.MC3(4))
	s := NewSim(m, WithInvariants())
	_, err := s.TryRun(1<<12, func(c *Ctx) {
		s.eng.live++ // phantom strand: load/live conservation now broken
		c.Tick(100)  // cross at least one round boundary
	})
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupted engine returned %T (%v), want *InvariantError", err, err)
	}
	if ie.Name != "strand-conservation" {
		t.Errorf("invariant name = %q, want strand-conservation", ie.Name)
	}
}

// TestInvariantsPassOnCleanRuns: the checker is read-only and quiet on a
// healthy engine, including under the stealing and flat variants.
func TestInvariantsPassOnCleanRuns(t *testing.T) {
	for _, opts := range [][]Opt{
		{WithInvariants()},
		{WithInvariants(), WithStealing()},
		{WithInvariants(), WithFlatScheduler()},
	} {
		s := NewSim(hm.MustMachine(hm.HM5(2, 2, 2)), opts...)
		if got := chaosWorkload(s, 128); got != int64(128*127) {
			t.Fatalf("verified run computed %d, want %d", got, 128*127)
		}
	}
}

// TestRunErrorCarriesPlacement: a panicking task surfaces through TryRun as
// a *RunError naming its core, anchor and label, and unwraps to the panic
// value when that value was an error — whether it was forked alone or with
// a sibling.
func TestRunErrorCarriesPlacement(t *testing.T) {
	boom := errors.New("boom")
	fragile := Task{Space: 64, Label: "fragile", Fn: func(cc *Ctx) { panic(boom) }}
	sturdy := Task{Space: 64, Label: "sturdy", Fn: func(cc *Ctx) { cc.Tick(1) }}
	for _, tc := range []struct {
		name  string
		tasks []Task
	}{
		{"pair", []Task{fragile, sturdy}},
		{"single", []Task{fragile}},
	} {
		s := NewSim(hm.MustMachine(hm.MC3(4)))
		_, err := s.TryRun(1<<12, func(c *Ctx) { c.SpawnSB(tc.tasks...) })
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%s: TryRun returned %T (%v), want *RunError", tc.name, err, err)
		}
		if re.Label != "fragile" {
			t.Errorf("%s: label = %q, want fragile", tc.name, re.Label)
		}
		if re.AnchorLevel != 1 {
			t.Errorf("%s: anchor level = %d, want 1 (task space 64 fits an L1)", tc.name, re.AnchorLevel)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: errors.Is(err, boom) = false; RunError should unwrap to the panic value", tc.name)
		}
	}
}

// TestChaosStrictlyAdditive: constructing a session with chaos wired but
// the injector replaced by nil must reproduce the chaos-free schedule —
// i.e. the chaos branches are only reachable through WithChaos.  (The
// golden-metrics suite pins the same property against on-disk snapshots.)
func TestChaosStrictlyAdditive(t *testing.T) {
	run := func(opts ...Opt) int64 {
		s := NewSim(hm.MustMachine(hm.HM4(2, 2)), opts...)
		v := s.NewI64(256)
		st := s.RunCold(1024, func(c *Ctx) {
			c.PFor(256, 1, func(cc *Ctx, lo, hi int) {
				for i := lo; i < hi; i++ {
					cc.StoreI(v.Base+Addr(i), 1)
				}
			})
		})
		return st.Steps
	}
	if a, b := run(), run(WithInvariants()); a != b {
		t.Errorf("WithInvariants changed the schedule: %d vs %d steps", a, b)
	}
}
