package core

// The deprecated WithParallelRounds and WithParallel options name removed
// backends (DESIGN.md §8, §11) and are no-ops kept for the benchmark
// module.  These tests keep the names of the parallel-rounds equivalence
// suites they replaced and pin the no-op: adding a deprecated option leaves
// every frozen observable of the run unchanged.  They go together with the
// options.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"oblivhm/internal/hm"
)

var (
	prOnly     = []Opt{WithParallelRounds(2)}
	prAlias    = []Opt{WithParallel(2)}
	prComposed = []Opt{WithParallelRounds(2), WithParallel(2)}
)

// checkLegacy runs workload with opts — on the reference engine when ref
// is set — and again on the fast engine with legacy appended, and requires
// the two runs to agree.
func checkLegacy(t *testing.T, name string, cfg hm.Config, opts, legacy []Opt, workload func(*Session) func(*Ctx), ref bool) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		want := runEquiv(cfg, 1<<15, opts, workload, ref)
		got := runEquiv(cfg, 1<<15, append(append([]Opt{}, opts...), legacy...), workload, false)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("diverged under the deprecated options:\nwant %+v\ngot  %+v", want, got)
		}
	})
}

func TestParallelRoundsMatchSerial(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range stressWorkloads() {
			checkLegacy(t, mname+"/"+wname, cfg, nil, prOnly, wl, false)
		}
		for vname, opts := range schedVariants() {
			checkLegacy(t, mname+"/"+vname, cfg, opts, prOnly, parallelWorkload, false)
		}
	}
}

func TestParallelRoundsComposed(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range stressWorkloads() {
			checkLegacy(t, mname+"/"+wname, cfg, nil, prComposed, wl, false)
		}
		checkLegacy(t, mname+"/steal", cfg, []Opt{WithStealing()}, prComposed, parallelWorkload, false)
	}
}

func TestParallelBackendMatchesSerial(t *testing.T) {
	for mname, cfg := range equivMachines() {
		checkLegacy(t, mname, cfg, nil, prAlias, parallelWorkload, false)
		for vname, opts := range schedVariants() {
			checkLegacy(t, mname+"/"+vname, cfg, opts, prAlias, parallelWorkload, false)
		}
	}
}

// TestParallelRoundsMatchReference compares the fast engine with the
// deprecated option against the reference engine without it.
func TestParallelRoundsMatchReference(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range stressWorkloads() {
			checkLegacy(t, mname+"/"+wname, cfg, nil, prOnly, wl, true)
		}
	}
}

func TestParallelRoundsUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkLegacy(t, fmt.Sprint("seed", seed), hm.HM4(4, 4), []Opt{WithChaos(seed)}, prOnly, parallelWorkload, false)
	}
}

func TestParallelBackendUnderChaos(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		checkLegacy(t, fmt.Sprint("seed", seed), hm.HM4(4, 4), []Opt{WithChaos(seed)}, prAlias, parallelWorkload, false)
	}
}

// TestParallelRoundsWorkerCaps: every worker count, including the
// non-positive and single-worker values the backend once special-cased,
// leaves the run unchanged.
func TestParallelRoundsWorkerCaps(t *testing.T) {
	for _, w := range []int{-1, 0, 1, 4} {
		checkLegacy(t, fmt.Sprint("w", w), hm.MC3(8), nil, []Opt{WithParallelRounds(w)}, parallelWorkload, false)
	}
}

// checkRepeatedRuns opens one session with opt and requires several cold
// runs to repeat the first one's metrics.
func checkRepeatedRuns(t *testing.T, opt Opt) {
	s := NewSim(hm.MustMachine(hm.MC3(8)), opt)
	root := parallelWorkload(s)
	first := s.RunCold(1<<15, root)
	for i := 0; i < 3; i++ {
		if again := s.RunCold(1<<15, root); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged from the first cold run:\nfirst %+v\nagain %+v", i+2, first, again)
		}
	}
}

func TestParallelRoundsRepeatedRuns(t *testing.T) { checkRepeatedRuns(t, WithParallelRounds(4)) }

func TestParallelBackendRepeatedRuns(t *testing.T) { checkRepeatedRuns(t, WithParallel(4)) }

// TestParallelRoundsFailure: a run failing mid-fan-out reports the same
// *RunError, at the same virtual time and access count, with the deprecated
// option as without it.
func TestParallelRoundsFailure(t *testing.T) {
	run := func(opts ...Opt) (RunError, int64, int64) {
		s := NewSim(hm.MustMachine(hm.HM4(4, 4)), opts...)
		v := s.NewI64(256)
		_, err := s.TryRunCold(1<<15, func(c *Ctx) {
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
		})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("expected *RunError, got %v", err)
		}
		re.Value = nil // the panic value holds a pointer
		return *re, s.eng.clock, s.Machine().Stats().Accesses
	}
	re1, clock1, acc1 := run()
	re2, clock2, acc2 := run(WithParallelRounds(4))
	if re1 != re2 || clock1 != clock2 || acc1 != acc2 {
		t.Errorf("failure diverged:\nwant %+v clock=%d accesses=%d\ngot  %+v clock=%d accesses=%d", re1, clock1, acc1, re2, clock2, acc2)
	}
}
