package core

// Equivalence tests for the engine fast path.  Each workload runs twice on
// identical machines: once on the fast engine (batched solo grants) and
// once with withReference(), which grants one round at a time — the seed
// engine's lockstep schedule, decision for decision.  The determinism
// contract requires the two runs to agree on every observable: virtual
// Steps, the full per-cache traffic snapshot, PlacedAt, Steals, and the
// entire heap contents.
//
// The workloads are chosen to drive the paths the algorithm goldens cannot
// reach — in particular single-task SpawnSB, which no shipped algorithm
// issues (I-GEP forks 2 or 4 tasks, recursive transpose 4).

import (
	"reflect"
	"testing"

	"oblivhm/internal/hm"
)

// equivResult is everything the contract freezes, in comparable form.
type equivResult struct {
	Steps  int64
	Sim    hm.Snapshot
	Placed []int
	Steals int64
	Heap   []uint64
}

func runEquiv(cfg hm.Config, space int64, opts []Opt, workload func(s *Session) func(*Ctx), ref bool) equivResult {
	m := hm.MustMachine(cfg)
	o := append([]Opt{}, opts...)
	if ref {
		o = append(o, withReference())
	}
	s := NewSim(m, o...)
	root := workload(s)
	st := s.RunCold(space, root)
	r := equivResult{Steps: st.Steps, Sim: st.Sim, Steals: s.Steals()}
	for lv := 1; lv < cfg.NumLevels(); lv++ {
		r.Placed = append(r.Placed, s.PlacedAt(lv))
	}
	for a := hm.Addr(0); int64(a) < m.HeapWords(); a++ {
		r.Heap = append(r.Heap, m.Peek(a))
	}
	return r
}

func checkEquiv(t *testing.T, name string, cfg hm.Config, space int64, opts []Opt, workload func(s *Session) func(*Ctx)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		fast := runEquiv(cfg, space, opts, workload, false)
		ref := runEquiv(cfg, space, opts, workload, true)
		if fast.Steps != ref.Steps {
			t.Errorf("Steps: fast %d, reference %d", fast.Steps, ref.Steps)
		}
		if !reflect.DeepEqual(fast.Sim, ref.Sim) {
			t.Errorf("machine snapshot drifted:\nfast %+v\nref  %+v", fast.Sim, ref.Sim)
		}
		if !reflect.DeepEqual(fast.Placed, ref.Placed) {
			t.Errorf("PlacedAt: fast %v, reference %v", fast.Placed, ref.Placed)
		}
		if fast.Steals != ref.Steals {
			t.Errorf("Steals: fast %d, reference %d", fast.Steals, ref.Steals)
		}
		if !reflect.DeepEqual(fast.Heap, ref.Heap) {
			t.Errorf("heap contents differ (fast vs reference)")
		}
	})
}

// equivMachines are the hierarchy shapes the workloads run on: a 3-level
// multicore, a 4-level tree, a deeper 5-level tree and a single core (the
// pure solo-batching schedule).
func equivMachines() map[string]hm.Config {
	return map[string]hm.Config{
		"mc3": hm.MC3(8),
		"hm4": hm.HM4(4, 4),
		"hm5": hm.HM5(2, 2, 2),
		"seq": hm.Seq(),
	}
}

// TestEquivSingleTaskSpawnSB drives single-task SB forks: a chain of them at
// descending space bounds, each child touching memory before and after
// forking so the parent/child interleaving is observable through the
// caches.
func TestEquivSingleTaskSpawnSB(t *testing.T) {
	for mname, cfg := range equivMachines() {
		c2 := cfg.Levels[0].Capacity * 2 // fits below the top on every shape
		checkEquiv(t, "anchored/"+mname, cfg, 1<<16, nil, func(s *Session) func(*Ctx) {
			v := s.NewI64(256)
			return func(c *Ctx) {
				for i := 0; i < 4; i++ {
					i := i
					c.StoreI(v.Base+Addr(i), int64(i))
					c.SpawnSB(Task{Space: c2, Fn: func(cc *Ctx) {
						for j := 0; j < 32; j++ {
							cc.StoreI(v.Base+Addr(8*i+j%8), cc.LoadI(v.Base+Addr(j%16))+1)
						}
					}})
					c.StoreI(v.Base+Addr(64+i), c.LoadI(v.Base+Addr(i)))
				}
			}
		})
	}
}

// TestEquivSingleTaskNested drives the single-task fallback where the child
// is too big for the next level down and runs nested under the parent's
// anchor.
func TestEquivSingleTaskNested(t *testing.T) {
	for _, mname := range []string{"mc3", "hm4", "hm5"} {
		cfg := equivMachines()[mname]
		top := cfg.Levels[len(cfg.Levels)-1].Capacity
		below := cfg.Levels[len(cfg.Levels)-2].Capacity
		checkEquiv(t, mname, cfg, top, nil, func(s *Session) func(*Ctx) {
			v := s.NewI64(128)
			return func(c *Ctx) {
				c.SpawnSB(Task{Space: below * 2, Fn: func(cc *Ctx) {
					for j := 0; j < 64; j++ {
						cc.StoreI(v.Base+Addr(j), int64(j))
					}
				}})
				c.StoreI(v.Base, c.LoadI(v.Base+Addr(1)))
			}
		})
	}
}

// TestEquivRecursiveSpawn: binary SB recursion with PFor leaves — the usual
// algorithm shape, with odd sizes so chunking hits remainders.
func TestEquivRecursiveSpawn(t *testing.T) {
	for mname, cfg := range equivMachines() {
		checkEquiv(t, mname, cfg, 1<<16, nil, func(s *Session) func(*Ctx) {
			const n = 777
			v := s.NewI64(n)
			var rec func(c *Ctx, lo, hi int)
			rec = func(c *Ctx, lo, hi int) {
				if hi-lo <= 64 {
					c.PFor(hi-lo, 1, func(cc *Ctx, a, b int) {
						for i := a; i < b; i++ {
							v.Set(cc, lo+i, v.At(cc, lo+i)+int64(lo+i))
						}
					})
					return
				}
				mid := (lo + hi) / 2
				c.SpawnSB(
					Task{Space: int64(mid-lo) * 2, Fn: func(cc *Ctx) { rec(cc, lo, mid) }},
					Task{Space: int64(hi-mid) * 2, Fn: func(cc *Ctx) { rec(cc, mid, hi) }},
				)
			}
			return func(c *Ctx) { rec(c, 0, n) }
		})
	}
}

// TestEquivCGCSBFanouts covers the three SpawnCGCSB placement regimes
// (even-contiguous, small fan-out descent, nested at λ) across fan-out
// sizes.
func TestEquivCGCSBFanouts(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for _, m := range []int{1, 2, 3, 7, 16} {
			m := m
			checkEquiv(t, mname+"/m"+string(rune('0'+m%10)), cfg, 1<<16, nil, func(s *Session) func(*Ctx) {
				v := s.NewI64(m * 32)
				return func(c *Ctx) {
					c.SpawnCGCSB(cfg.Levels[0].Capacity/2, m, func(cc *Ctx, idx int) {
						for j := 0; j < 32; j++ {
							v.Set(cc, idx*32+j, int64(idx*j))
						}
					})
				}
			})
		}
	}
}

// TestEquivStealing: an unbalanced fork pattern under WithStealing — the
// fast path must keep the same steal victims and counts.
func TestEquivStealing(t *testing.T) {
	cfg := hm.HM4(4, 4)
	checkEquiv(t, "hm4", cfg, 1<<16, []Opt{WithStealing()}, func(s *Session) func(*Ctx) {
		v := s.NewI64(1024)
		return func(c *Ctx) {
			var tasks []Task
			for k := 0; k < 9; k++ {
				k := k
				work := 16 << uint(k%4) // deliberately unequal
				tasks = append(tasks, Task{Space: 256, Fn: func(cc *Ctx) {
					for j := 0; j < work; j++ {
						v.Set(cc, (k*97+j)%1024, int64(k+j))
					}
				}})
			}
			c.SpawnSB(tasks...)
		}
	})
}

// TestEquivFlatScheduler pins the ablation scheduler.
func TestEquivFlatScheduler(t *testing.T) {
	cfg := hm.HM4(4, 4)
	checkEquiv(t, "hm4", cfg, 1<<16, []Opt{WithFlatScheduler()}, func(s *Session) func(*Ctx) {
		v := s.NewI64(512)
		return func(c *Ctx) {
			var tasks []Task
			for k := 0; k < 6; k++ {
				k := k
				tasks = append(tasks, Task{Space: 128, Fn: func(cc *Ctx) {
					for j := 0; j < 64; j++ {
						v.Set(cc, k*64+j, int64(k*j))
					}
				}})
			}
			c.SpawnSB(tasks...)
		}
	})
}

// TestEquivAdmissionPressure queues more concurrently forked space than the
// target level holds, so placement stalls in Q(λ) and admits run on strand
// completion — the reservation bookkeeping must match exactly.
func TestEquivAdmissionPressure(t *testing.T) {
	cfg := hm.HM4(2, 2)
	c2 := cfg.Levels[1].Capacity
	checkEquiv(t, "hm4", cfg, cfg.Levels[2].Capacity, nil, func(s *Session) func(*Ctx) {
		v := s.NewI64(64 * 8)
		return func(c *Ctx) {
			var tasks []Task
			for k := 0; k < 8; k++ {
				k := k
				tasks = append(tasks, Task{Space: c2, Fn: func(cc *Ctx) {
					for j := 0; j < 64; j++ {
						v.Set(cc, k*64+j, int64(k))
					}
				}})
			}
			c.SpawnSB(tasks...)
		}
	})
}

// TestEquivTickOvershoot: huge Tick charges overshoot the round budget by
// orders of magnitude; boundary forgiveness must batch identically.
func TestEquivTickOvershoot(t *testing.T) {
	for mname, cfg := range equivMachines() {
		checkEquiv(t, mname, cfg, 1<<12, nil, func(s *Session) func(*Ctx) {
			v := s.NewI64(16)
			return func(c *Ctx) {
				for i := 0; i < 8; i++ {
					c.Tick(1000)
					c.StoreI(v.Base+Addr(i), c.LoadI(v.Base+Addr((i+1)%16))+1)
					c.Tick(3)
				}
			}
		})
	}
}

// TestEquivDeepSerial: a long single-strand run — the batched solo grant in
// its purest form.
func TestEquivDeepSerial(t *testing.T) {
	for mname, cfg := range equivMachines() {
		checkEquiv(t, mname, cfg, 1<<12, nil, func(s *Session) func(*Ctx) {
			v := s.NewI64(256)
			return func(c *Ctx) {
				for i := 0; i < 5000; i++ {
					a := Addr(i % 256)
					c.StoreI(v.Base+a, c.LoadI(v.Base+a)+1)
				}
			}
		})
	}
}

// TestEquivInlineChildForks: a single-task SB child that itself forks
// nested subtasks round-robin over its anchor's cores — some land on the
// parent's own run queue while the child is mid-flight, so the parent wakes
// from its join behind them.
func TestEquivInlineChildForks(t *testing.T) {
	for _, mname := range []string{"mc3", "hm4", "hm5"} {
		cfg := equivMachines()[mname]
		c1 := cfg.Levels[0].Capacity
		checkEquiv(t, mname, cfg, 1<<18, nil, func(s *Session) func(*Ctx) {
			v := s.NewI64(1024)
			return func(c *Ctx) {
				// Child space is too big for an L1, so it anchors at level 2
				// over the parent's own core group.
				c.SpawnSB(Task{Space: c1 * 2, Fn: func(cc *Ctx) {
					cc.SpawnCGCSB(c1*2, 8, func(c2 *Ctx, idx int) {
						for j := 0; j < 16; j++ {
							c2.StoreI(v.Base+Addr(idx*16+j), int64(idx+j))
						}
					})
					for j := 0; j < 8; j++ {
						cc.StoreI(v.Base+Addr(512+j), cc.LoadI(v.Base+Addr(j))+1)
					}
				}})
				c.StoreI(v.Base+Addr(1000), c.LoadI(v.Base)+7)
			}
		})
	}
}

// TestEquivInlineUnderLoad: every core first gets a nested task, then each
// task forks a lone SB child.  With the siblings loading the other cores,
// the least-loaded placement lands some children on their parent's own core
// and others elsewhere; both must match the reference schedule.
func TestEquivInlineUnderLoad(t *testing.T) {
	for _, mname := range []string{"mc3", "hm4", "hm5"} {
		cfg := equivMachines()[mname]
		p := cfg.Cores()
		c1 := cfg.Levels[0].Capacity
		top := cfg.Levels[len(cfg.Levels)-1].Capacity
		checkEquiv(t, mname, cfg, top, nil, func(s *Session) func(*Ctx) {
			v := s.NewI64(p * 64)
			return func(c *Ctx) {
				var tasks []Task
				for k := 0; k < p; k++ {
					k := k
					// Space above the next level's capacity: runs nested at
					// the top, round-robined over the cores.
					tasks = append(tasks, Task{Space: top, Fn: func(cc *Ctx) {
						cc.Tick(int64(k) * 7)
						// Small child: anchors at an L1.
						cc.SpawnSB(Task{Space: c1 / 2, Fn: func(c2 *Ctx) {
							for j := 0; j < 16; j++ {
								c2.StoreI(v.Base+Addr(k*64+j), int64(k+j))
							}
						}})
						// Medium child: anchors at an intermediate level.
						cc.SpawnSB(Task{Space: c1 * 2, Fn: func(c2 *Ctx) {
							for j := 0; j < 16; j++ {
								c2.StoreI(v.Base+Addr(k*64+32+j), c2.LoadI(v.Base+Addr(k*64+j))+1)
							}
						}})
					}})
				}
				c.SpawnSB(tasks...)
			}
		})
	}
}

// TestEquivQuantumVariants reruns a mixed workload under a non-default
// quantum, which shifts every round boundary.
func TestEquivQuantumVariants(t *testing.T) {
	cfg := hm.HM4(4, 4)
	for _, q := range []int64{1, 8, 57} {
		q := q
		checkEquiv(t, "q"+string(rune('0'+q%10)), cfg, 1<<16, []Opt{WithQuantum(q)}, func(s *Session) func(*Ctx) {
			v := s.NewI64(512)
			return func(c *Ctx) {
				c.PFor(500, 1, func(cc *Ctx, lo, hi int) {
					for i := lo; i < hi; i++ {
						v.Set(cc, i, int64(i*i))
					}
				})
				c.SpawnSB(
					Task{Space: 128, Fn: func(cc *Ctx) { cc.Tick(100) }},
					Task{Space: 128, Fn: func(cc *Ctx) {
						for i := 0; i < 50; i++ {
							v.Set(cc, i, v.At(cc, i)+1)
						}
					}},
				)
			}
		})
	}
}

// ---- scheduler stress workloads ----

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
// rare forks, so concurrently runnable strands share rounds for thousands
// of operations.  Each task owns a disjoint 128-word range.
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

// forkHeavyWorkload forks constantly: two-task SB forks every few
// operations, at space bounds cycling through three levels, so placement,
// admission and joins dominate.
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

// pforHeavyWorkload repeats a fan-out in which the parent forks a chunk to
// every sibling core and then runs its own chunk — fork, a long pure
// stretch, then the join — four times over the same array.
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

func stressWorkloads() map[string]func(*Session) func(*Ctx) {
	return map[string]func(*Session) func(*Ctx){
		"mixed": parallelWorkload,
		"tick":  tickHeavyWorkload,
		"fork":  forkHeavyWorkload,
		"pfor":  pforHeavyWorkload,
	}
}

// TestEquivStressWorkloads runs the stress workloads on every machine
// shape, plus the mixed one under stealing, the flat scheduler and a fine
// quantum.
func TestEquivStressWorkloads(t *testing.T) {
	for mname, cfg := range equivMachines() {
		for wname, wl := range stressWorkloads() {
			checkEquiv(t, mname+"/"+wname, cfg, 1<<15, nil, wl)
		}
		for vname, opts := range schedVariants() {
			checkEquiv(t, mname+"/mixed/"+vname, cfg, 1<<15, opts, parallelWorkload)
		}
	}
}

// schedVariants are the scheduler options the mixed workload also runs
// under.
func schedVariants() map[string][]Opt {
	return map[string][]Opt{
		"steal": {WithStealing()},
		"flat":  {WithFlatScheduler()},
		"q8":    {WithQuantum(8)},
	}
}
