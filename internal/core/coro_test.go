package core

import (
	"runtime"
	"testing"
	"time"

	"oblivhm/internal/hm"
)

// TestRunsStopEveryStrand: a run stops the coroutine of every strand it
// created — pooled, parked on a join, or queued mid-task — and its hm
// walker, whether it succeeds or fails, so repeated runs of each kind leave
// the goroutine count at its baseline.
func TestRunsStopEveryStrand(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"failing behind the walker", func(t *testing.T) {
			// Every chunk stores 8192 words, eight hm batches in all,
			// before the upper half panics, so the run's cache walk went to
			// a walker, which drain must stop.  Two CPUs let it start on a
			// one-CPU host too.  First in the list, so that a window another
			// case failed to close cannot take its CPU.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
			const n = 1 << 16
			s := NewSim(hm.MustMachine(hm.MC3(8)))
			a := s.AllocWords(n)
			_, err := s.TryRun(n, func(c *Ctx) {
				c.PFor(n, 1, func(cc *Ctx, lo, hi int) {
					for i := lo; i < hi; i++ {
						cc.StoreU(a+Addr(i), uint64(i))
					}
					if lo >= n/2 {
						panic("boom")
					}
					cc.Tick(1 << 12)
				})
			})
			if !IsRunFailure(err) {
				t.Fatalf("err = %v, want a run failure", err)
			}
			m := s.Machine()
			if l1 := m.ByLevel[0][0].Stats; m.Stats().Accesses != n || m.ByLevel[0][0].Stats != l1 {
				t.Fatal("the failed run left its cache walk unfinished")
			}
		}},
		{"failing", func(t *testing.T) {
			// The upper half's chunks panic in their first round while the
			// root and the lower chunks are still mid-task.
			s := NewSim(hm.MustMachine(hm.MC3(8)))
			_, err := s.TryRun(1<<12, func(c *Ctx) {
				c.PFor(1<<12, 1, func(cc *Ctx, lo, hi int) {
					if lo >= 1<<11 {
						panic("boom")
					}
					cc.Tick(1 << 12)
				})
			})
			if !IsRunFailure(err) {
				t.Fatalf("err = %v, want a run failure", err)
			}
		}},
		{"serial", func(t *testing.T) {
			if out := runFailure(t, hm.MC3(8), 2048); out.Err != "" {
				t.Fatal(out.Err)
			}
		}},
		{"parallel-rounds", func(t *testing.T) { // the deprecated no-op option
			if out := runFailure(t, hm.MC3(8), 2048, WithParallelRounds(2)); out.Err != "" {
				t.Fatal(out.Err)
			}
		}},
		{"kill", func(t *testing.T) {
			out := runFailure(t, hm.MC3(8), 2048, WithFailures(1, failPlan))
			if out.Err != "" {
				t.Fatal(out.Err)
			}
			if out.Recovery.KilledStrands == 0 {
				t.Fatal("no strand was killed: killStrand went unexercised")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				tc.run(t)
			}
			// Give a goroutine that is still exiting a moment to be gone.
			n := runtime.NumGoroutine()
			for i := 0; i < 200 && n > base; i++ {
				time.Sleep(5 * time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				t.Errorf("%d goroutines after the runs, %d before", n, base)
			}
		})
	}
}

// BenchmarkPullRoundTrip is one bare resume/yield round trip through pull:
// the coroutine switch every lockstep turn makes, and so the floor under a
// turn's cost (DESIGN.md §6).  ns/op is ns per round trip.
func BenchmarkPullRoundTrip(b *testing.B) {
	next, stop := pull(func(yield func(yieldMsg) bool) {
		for yield(yieldMsg{kind: yBudget}) {
		}
	})
	defer stop()
	for i := 0; i < b.N; i++ {
		if _, ok := next(); !ok {
			b.Fatal("the coroutine stopped")
		}
	}
}
