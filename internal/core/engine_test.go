package core

import (
	"testing"

	"oblivhm/internal/hm"
)

// TestQuantumInvariance: the computed RESULT must be identical for any
// quantum (only the interleaving, hence steps/misses, may differ).
func TestQuantumInvariance(t *testing.T) {
	run := func(q int64) []int64 {
		m := hm.MustMachine(hm.HM4(4, 4))
		s := NewSim(m, WithQuantum(q))
		n := 1 << 10
		v := s.NewI64(n)
		s.Run(int64(4*n), func(c *Ctx) {
			c.PFor(n, 1, func(cc *Ctx, lo, hi int) {
				for i := lo; i < hi; i++ {
					v.Set(cc, i, int64(i)*3)
				}
			})
			c.SpawnCGCSB(int64(n/4), 4, func(cc *Ctx, idx int) {
				seg := n / 4
				for i := idx * seg; i < (idx+1)*seg; i++ {
					v.Set(cc, i, v.At(cc, i)+1)
				}
			})
		})
		out := make([]int64, n)
		for i := range out {
			out[i] = s.PeekI(v, i)
		}
		return out
	}
	base := run(32)
	for _, q := range []int64{1, 7, 128, 4096} {
		got := run(q)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("quantum %d changes results at %d: %d vs %d", q, i, got[i], base[i])
			}
		}
	}
}

// TestSmallerQuantumMoreRounds: finer interleaving costs more rounds but
// both complete; steps scale sanely.
func TestQuantumAffectsOnlyAccounting(t *testing.T) {
	steps := func(q int64) int64 {
		m := hm.MustMachine(hm.MC3(4))
		s := NewSim(m, WithQuantum(q))
		n := 1 << 10
		v := s.NewF64(n)
		st := s.Run(int64(n), func(c *Ctx) {
			c.PFor(n, 1, func(cc *Ctx, lo, hi int) {
				for i := lo; i < hi; i++ {
					v.Set(cc, i, 1)
				}
			})
		})
		return st.Steps
	}
	s8, s512 := steps(8), steps(512)
	if s8 <= 0 || s512 <= 0 {
		t.Fatal("no steps recorded")
	}
	// Large quanta round time up to a multiple of the quantum, so they can
	// only overestimate.
	if s512 < s8/4 {
		t.Fatalf("coarse quantum lost time: %d vs %d", s512, s8)
	}
}

// TestStealingBalancesSkewedSpawn: a spawn pattern that SB places on one
// subtree of the hierarchy finishes faster with the stealing extension.
func TestStealingBalancesSkewedSpawn(t *testing.T) {
	run := func(opts ...Opt) (int64, int64) {
		m := hm.MustMachine(hm.HM4(4, 4))
		s := NewSim(m, opts...)
		// One heavy strand per task, all anchored small: SB spreads by
		// least-loaded, so to skew we spawn sequentially nested chains.
		work := func(cc *Ctx) { cc.Tick(5000) }
		st := s.Run(1<<17, func(c *Ctx) {
			var tasks []Task
			for i := 0; i < 3; i++ {
				tasks = append(tasks, Task{Space: 64, Fn: work})
			}
			// A second wave arrives while the first is running, landing on
			// the same least-loaded cores as seen at spawn time.
			c.SpawnSB(append(tasks,
				Task{Space: 64, Fn: func(cc *Ctx) {
					cc.SpawnSB(
						Task{Space: 32, Fn: work}, Task{Space: 32, Fn: work},
						Task{Space: 32, Fn: work}, Task{Space: 32, Fn: work},
					)
				}})...)
		})
		return st.Steps, s.Steals()
	}
	plain, steals0 := run()
	stolen, steals1 := run(WithStealing())
	if steals0 != 0 {
		t.Fatalf("stealing happened without the option: %d", steals0)
	}
	if steals1 == 0 {
		t.Skip("schedule happened to balance; no steals triggered")
	}
	if stolen > plain {
		t.Errorf("stealing made the skewed schedule slower: %d vs %d steps", stolen, plain)
	}
}

// TestDeadlockDetection: a strand that parks forever must be reported as a
// deadlock, not hang the engine.
func TestDeadlockDetection(t *testing.T) {
	m := hm.MustMachine(hm.MC3(2))
	s := NewSim(m)
	defer func() {
		if recover() == nil {
			t.Fatal("no deadlock panic")
		}
	}()
	s.Run(1<<12, func(c *Ctx) {
		jn := &join{pending: 1} // a join that can never be signalled
		c.waitJoin(jn)
	})
}

// TestManyConcurrentStrands: stress the engine with hundreds of strands
// forking and joining across quanta.
func TestManyConcurrentStrands(t *testing.T) {
	m := hm.MustMachine(hm.HM5(2, 4, 4))
	s := NewSim(m)
	n := 512
	v := s.NewI64(n)
	s.Run(1<<19, func(c *Ctx) {
		c.SpawnCGCSB(256, 64, func(cc *Ctx, i int) {
			cc.SpawnCGCSB(64, 8, func(c2 *Ctx, j int) {
				c2.Tick(10)
				idx := i*8 + j
				v.Set(c2, idx, int64(idx))
			})
		})
	})
	for i := 0; i < n; i++ {
		if s.PeekI(v, i) != int64(i) {
			t.Fatalf("strand %d lost its write", i)
		}
	}
}

// TestSpawnCGCSBSmallFanoutDescends: the §III-C provision — a binary fork
// whose subtasks fit a mid-level cache must be anchored there (not pinned
// at the top), so recursive binary forks descend the hierarchy.
func TestSpawnCGCSBSmallFanoutDescends(t *testing.T) {
	m := hm.MustMachine(hm.HM4(4, 4)) // C2 = 2^13
	s := NewSim(m)
	s.Run(1<<17, func(c *Ctx) {
		c.SpawnCGCSB(1<<12, 2, func(cc *Ctx, idx int) {}) // fits L2, m=2 < q2=4
	})
	if got := s.PlacedAt(2); got != 2 {
		t.Errorf("binary fork anchored %d tasks at L2, want 2", got)
	}
}

// TestRunTwiceOnSameSession: sessions are reusable; stats reset per run
// while memory persists.
func TestRunTwiceOnSameSession(t *testing.T) {
	m := hm.MustMachine(hm.MC3(2))
	s := NewSim(m)
	v := s.NewI64(4)
	s.Run(16, func(c *Ctx) { v.Set(c, 0, 7) })
	st := s.Run(16, func(c *Ctx) {
		if v.At(c, 0) != 7 {
			t.Error("memory lost between runs")
		}
	})
	if st.Steps <= 0 {
		t.Error("second run recorded no steps")
	}
}

// TestLeastLoadedCoreTieBreak pins the deterministic total order of core
// placement: ascending scan over the shadow, strictly-smaller-load wins, so
// equal loads resolve to the lowest core index.  The goldens freeze the
// placements this order produces, and the parallel-rounds commit walk
// reproduces the serial schedule only because placement depends on nothing
// but engine state.
func TestLeastLoadedCoreTieBreak(t *testing.T) {
	m := hm.MustMachine(hm.MC3(8))
	e := NewSim(m).eng
	top := m.Top()

	if got := e.leastLoadedCore(top); got != 0 {
		t.Errorf("all loads zero: picked core %d, want 0", got)
	}
	for i := range e.load {
		e.load[i] = 5
	}
	e.load[3], e.load[6] = 2, 2
	if got := e.leastLoadedCore(top); got != 3 {
		t.Errorf("tie between cores 3 and 6: picked %d, want the lower index 3", got)
	}
	e.load[6] = 1
	if got := e.leastLoadedCore(top); got != 6 {
		t.Errorf("core 6 strictly least loaded: picked %d", got)
	}

	// Restricted shadow: the scan starts at CoreLo, not core 0.
	m4 := hm.MustMachine(hm.HM4(4, 4))
	e4 := NewSim(m4).eng
	l2 := m4.ByLevel[1][2] // covers cores [8, 12)
	if got := e4.leastLoadedCore(l2); got != l2.CoreLo {
		t.Errorf("empty shadow of L2[2]: picked core %d, want CoreLo %d", got, l2.CoreLo)
	}
	for i := l2.CoreLo; i < l2.CoreHi; i++ {
		e4.load[i] = 1
	}
	e4.load[9], e4.load[11] = 0, 0
	if got := e4.leastLoadedCore(l2); got != 9 {
		t.Errorf("tie between cores 9 and 11: picked %d, want 9", got)
	}
}

// TestLeastLoadedSlotTieBreak pins the slot placement order: the key is
// used+len(queue) (reserved words plus queued tasks), candidates come in
// ascending cache index, and ties resolve to the lowest index — the same
// order the goldens and the parallel-rounds commit walk rely on.
func TestLeastLoadedSlotTieBreak(t *testing.T) {
	m := hm.MustMachine(hm.HM4(4, 4))
	e := NewSim(m).eng
	top := m.Top()

	if got := e.leastLoadedSlot(top, 2); got != e.slots[1][0] {
		t.Errorf("all slots empty: picked L2[%d], want L2[0]", got.cache.Index)
	}
	for _, s := range e.slots[1] {
		s.used = 100
	}
	e.slots[1][1].used, e.slots[1][3].used = 40, 40
	if got := e.leastLoadedSlot(top, 2); got != e.slots[1][1] {
		t.Errorf("tie between L2[1] and L2[3]: picked L2[%d], want the lower index 1", got.cache.Index)
	}
	// Queue length is part of the key: one queued task breaks the tie.
	e.slots[1][1].queue = append(e.slots[1][1].queue, pending{})
	if got := e.leastLoadedSlot(top, 2); got != e.slots[1][3] {
		t.Errorf("L2[1] has a queued task: picked L2[%d], want L2[3]", got.cache.Index)
	}
	e.slots[1][1].queue = nil
	// A strictly smaller key at a higher index wins over lower indices.
	e.slots[1][2].used = 39
	if got := e.leastLoadedSlot(top, 2); got != e.slots[1][2] {
		t.Errorf("L2[2] strictly least loaded: picked L2[%d], want 2", got.cache.Index)
	}
}
