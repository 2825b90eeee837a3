package hm

// Stream-level equivalence of the round fan-in flush paths (fanin.go)
// against the plain serial access walk.  A synthetic driver records
// per-core, per-round access chunks through StartRoundFanIn/MarkRound —
// exactly what the engine's speculative phase produces — and flushes them
// in (round, core) lexicographic order through FlushFanRounds and
// FlushFanChunk; a second machine of the same preset consumes the same
// stream in that serial interleaving directly.  Every cache must end with
// byte-identical stats and residency, and the access counters must agree,
// across bulk ranges, core subsets, partial rounds and concurrent recording.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// fanTestHeap covers the shared hot region plus one 1024-word region per
// core of the largest preset.
const fanTestHeap = 1 << 16

// fanAcc is one planned access: writes stay inside the issuing core's own
// region (the engine's fork-join race-freedom contract), loads hit the
// shared read-only hot range [0, 512) and, when crossLoads is set, roam
// across all regions so coherent presets see real invalidation traffic.
type fanAcc struct {
	a     Addr
	write bool
}

// fanRegion returns the base of core c's private region.
func fanRegion(c int) int64 { return 512 + int64(c)*1024 }

// planFanPhase builds rounds+1 rows of per-core chunks; the last row is the
// partial round (recorded but never marked).  Without crossLoads every core
// reads only its own region and the hot range, so its chunks can be
// recorded concurrently with the other cores' without a data race.
func planFanPhase(rng *rand.Rand, cores []int, ncores, rounds, perRound int, crossLoads bool) [][][]fanAcc {
	plan := make([][][]fanAcc, rounds+1)
	for r := range plan {
		plan[r] = make([][]fanAcc, ncores)
		for _, c := range cores {
			n := 1 + rng.Intn(perRound)
			if r == rounds {
				n = rng.Intn(perRound) // partial rounds may be empty
			}
			chunk := make([]fanAcc, n)
			for i := range chunk {
				switch {
				case rng.Intn(3) == 0:
					chunk[i] = fanAcc{a: Addr(fanRegion(c) + rng.Int63n(1024)), write: true}
				case rng.Intn(3) == 0:
					chunk[i] = fanAcc{a: Addr(rng.Int63n(512))} // shared hot region
				case crossLoads:
					chunk[i] = fanAcc{a: Addr(fanRegion(rng.Intn(ncores)) + rng.Int63n(1024))}
				default:
					chunk[i] = fanAcc{a: Addr(fanRegion(c) + rng.Int63n(1024))}
				}
			}
			plan[r][c] = chunk
		}
	}
	return plan
}

// recordFanCore issues core c's planned accesses into fan's buffer in round
// order, marking every completed round.
func recordFanCore(fan *Machine, plan [][][]fanAcc, c int) {
	rounds := len(plan) - 1
	for r := 0; r <= rounds; r++ {
		for _, ac := range plan[r][c] {
			if ac.write {
				fan.Store(c, ac.a, uint64(ac.a))
			} else {
				fan.Load(c, ac.a)
			}
		}
		if r < rounds {
			fan.MarkRound(c)
		}
	}
}

// driveFanPhase records the plan into fan's fan-in buffers — on workers
// goroutines, each owning a disjoint set of cores, when workers > 1 —
// replays the serial interleaving into serial directly, then flushes fan's
// buffers: one bulk range [0, bulkHi), a second bulk range [bulkHi, rounds)
// and finally the per-core partial chunks.
func driveFanPhase(t *testing.T, serial, fan *Machine, plan [][][]fanAcc, cores []int, bulkHi, workers int) {
	t.Helper()
	rounds := len(plan) - 1
	fan.StartRoundFanIn()
	if workers <= 1 {
		for _, c := range cores {
			recordFanCore(fan, plan, c)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(cores); i += workers {
					recordFanCore(fan, plan, cores[i])
				}
			}(w)
		}
		wg.Wait()
	}
	fan.EndRoundFanIn()

	for r := 0; r <= rounds; r++ {
		for _, c := range cores {
			for _, ac := range plan[r][c] {
				if ac.write {
					serial.Store(c, ac.a, uint64(ac.a))
				} else {
					serial.Load(c, ac.a)
				}
			}
		}
	}

	fan.FlushFanRounds(cores, 0, bulkHi)
	fan.FlushFanRounds(cores, bulkHi, rounds)
	for _, c := range cores {
		fan.FlushFanChunk(c, rounds)
	}
}

// compareMachines asserts per-cache equality of stats and residency plus the
// aggregate snapshot.
func compareMachines(t *testing.T, serial, fan *Machine, tag string) {
	t.Helper()
	ss, fs := serial.Stats(), fan.Stats()
	for i, level := range serial.ByLevel {
		for j, c := range level {
			fc := fan.ByLevel[i][j]
			if c.Stats != fc.Stats {
				t.Errorf("%s: L%d[%d] stats diverge:\n  serial %+v\n  fan-in %+v", tag, i+1, j, c.Stats, fc.Stats)
			}
			if c.resident != fc.resident {
				t.Errorf("%s: L%d[%d] residency diverges: serial %d, fan-in %d", tag, i+1, j, c.resident, fc.resident)
			}
		}
	}
	if serial.Accesses != fan.Accesses {
		t.Errorf("%s: access counts diverge: serial %d, fan-in %d", tag, serial.Accesses, fan.Accesses)
	}
	if !reflect.DeepEqual(ss, fs) {
		t.Errorf("%s: snapshots diverge:\n  serial %+v\n  fan-in %+v", tag, ss, fs)
	}
}

// TestFlushFanRoundsSerialWalk pins FlushFanRounds: bulk ranges walk the
// cache hierarchy in-line in (round, core) order, including a core subset,
// trailing partial rounds and cross-core loads (coherence traffic).
func TestFlushFanRoundsSerialWalk(t *testing.T) {
	for _, cfg := range []Config{MC3(8), HM4(4, 4)} {
		t.Run(cfg.Name, func(t *testing.T) {
			serial, fan := MustMachine(cfg), MustMachine(cfg)
			serial.Alloc(fanTestHeap)
			fan.Alloc(fanTestHeap)
			rng := rand.New(rand.NewSource(7))
			all := make([]int, fan.Cores())
			for i := range all {
				all[i] = i
			}
			subset := all[:len(all)-1]
			for phase := 0; phase < 4; phase++ {
				cores := all
				if phase%2 == 1 {
					cores = subset
				}
				plan := planFanPhase(rng, cores, fan.Cores(), 12, 24, true)
				driveFanPhase(t, serial, fan, plan, cores, 9, 1)
			}
			compareMachines(t, serial, fan, cfg.Name)
		})
	}
}

// TestParallelFanEpochDispatch pins the fan-in path as the parallel-rounds
// engine drives it, epoch after epoch: workers goroutines record disjoint
// cores' chunks at the same real instant (so -race checks the per-core
// buffers share no state), each epoch commits two bulk ranges plus the
// partial rounds, and many epochs reuse the buffers across StartRoundFanIn.
// A mid-run Stats read must already agree with the serial machine.
func TestParallelFanEpochDispatch(t *testing.T) {
	for name, cfg := range Presets() {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				serial, fan := MustMachine(cfg), MustMachine(cfg)
				serial.Alloc(fanTestHeap)
				fan.Alloc(fanTestHeap)
				rng := rand.New(rand.NewSource(11))
				cores := make([]int, fan.Cores())
				for i := range cores {
					cores[i] = i
				}
				const epochs = 12
				for epoch := 0; epoch < epochs; epoch++ {
					plan := planFanPhase(rng, cores, fan.Cores(), 10, 32, false)
					driveFanPhase(t, serial, fan, plan, cores, 7, workers)
					if epoch == epochs/2 {
						compareMachines(t, serial, fan, fmt.Sprintf("%s mid-run", name))
					}
				}
				compareMachines(t, serial, fan, name)
			})
		}
	}
}
