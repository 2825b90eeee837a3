package core

import (
	"runtime"
	"testing"
	"time"

	"oblivhm/internal/hm"
)

// TestRunsStopEveryStrand: a run stops the coroutine of every strand it
// created — pooled, parked on a join, or queued mid-task — whether it
// succeeds or fails, so repeated runs of each kind leave the goroutine count
// at its baseline.
func TestRunsStopEveryStrand(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
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
				t.Fatal("no strand was killed: the poison path went unexercised")
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
