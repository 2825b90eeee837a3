package core

import "fmt"

// Chaos mode: a seeded, deterministic fault injector for the scheduler.
// The paper's central claim is that the SB/CGC discipline stays correct for
// any machine parameters; chaos mode stresses the complementary claim that
// the *engine* stays correct under adversarial scheduling decisions (in the
// spirit of Cole–Ramachandran's analysis of cache bounds under general
// schedulers).  With WithChaos(seed) the engine perturbs, deterministically
// per seed:
//
//   - per-round core budgets (quantum jitter in [1, 2·quantum)),
//   - solo batch grants (randomly suppressed, forcing lockstep),
//   - admission timing (Q(λ) admissions deferred to the next round
//     boundary, or the queue head rotated to the back),
//   - anchor-placement tie-breaks (least-loaded core/slot ties broken
//     randomly instead of lowest-index-first),
//   - steal-victim choice (a random eligible victim instead of the most
//     loaded).
//
// Every perturbation preserves the scheduler's semantics — tasks are still
// placed least-loaded at the level the SB/CGC rules pick, deferred
// admissions are flushed at the next round boundary — so any workload that
// completes without chaos must complete under every seed, with the runtime
// invariants (enabled implicitly by WithChaos) holding after every round.
// With chaos disabled the engine takes none of these branches and draws no
// random numbers: chaos mode is strictly additive to the determinism
// contract.

// chaosRNG is splitmix64: tiny, seedable, and good enough for schedule
// perturbation.  math/rand is avoided so the engine stays allocation-free
// and the stream is stable across Go releases.
type chaosRNG struct{ state uint64 }

func (r *chaosRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *chaosRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// chaos holds the injector state attached to an engine.
type chaos struct {
	rng      chaosRNG
	deferred []*cacheSlot // admissions postponed to the next round boundary
	scratch  []int        // candidate buffer for randomized tie-breaks
}

func newChaos(seed int64) *chaos {
	c := &chaos{rng: chaosRNG{state: uint64(seed)}}
	c.rng.next() // decorrelate nearby seeds
	return c
}

// coin returns true with probability 1/p.
func (c *chaos) coin(p int) bool { return c.rng.intn(p) == 0 }

// budget returns a jittered per-round core budget in [1, 2·quantum).
func (c *chaos) budget(quantum int64) int64 {
	return 1 + int64(c.rng.intn(int(2*quantum-1)))
}

// deferSlot postpones slot's admission pass to the next round boundary.
func (c *chaos) deferSlot(slot *cacheSlot) {
	for _, s := range c.deferred {
		if s == slot {
			return
		}
	}
	c.deferred = append(c.deferred, slot)
}

// pick returns a random element of the candidate buffer.
func (c *chaos) pick(cands []int) int { return cands[c.rng.intn(len(cands))] }

// WithChaos enables the deterministic fault injector with the given seed on
// a simulated session, and turns on the per-round invariant checker.  Two
// sessions with the same seed, workload and machine produce identical
// schedules and metrics; different seeds explore different interleavings.
func WithChaos(seed int64) Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.chaos = newChaos(seed)
			s.eng.verify = true
		}
	}
}

// WithInvariants enables the per-round engine invariant checker without any
// schedule perturbation: strand/join conservation, run-queue/bitmask
// agreement, cache-slot occupancy sanity and per-cache miss-count
// monotonicity are asserted after every round, and full conservation
// (nothing queued, nothing live, all reservations released) at the end of
// the run.  Violations surface as *InvariantError.  The checks are
// read-only: enabling them cannot change a schedule.
func WithInvariants() Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.verify = true
		}
	}
}

// ---- per-round invariant checks ----

// initInvariants snapshots the per-cache miss counters at the start of a
// verified run (the monotonicity baseline).
func (e *engine) initInvariants() {
	if e.prevMiss == nil {
		e.prevMiss = make([][]int64, len(e.slots))
		for i, level := range e.slots {
			e.prevMiss[i] = make([]int64, len(level))
		}
	}
	for i, level := range e.slots {
		for j, slot := range level {
			e.prevMiss[i][j] = slot.cache.Stats.Misses
		}
	}
}

// checkInvariants asserts the engine's bookkeeping after a round.  It is
// only called with e.verify set and never mutates scheduler state.
func (e *engine) checkInvariants() error {
	fail := func(name, format string, args ...any) error {
		return &InvariantError{Clock: e.clock, Name: name, Detail: fmt.Sprintf(format, args...)}
	}
	sumLoad, sumRun := 0, 0
	for c := range e.runq {
		sumLoad += e.load[c]
		n := e.runq[c].size()
		sumRun += n
		if got := e.active&(1<<uint(c)) != 0; got != (n > 0) && !e.steal && !e.reference {
			return fail("active-mask", "core %d: queue size %d but active bit %v", c, n, got)
		}
	}
	if sumLoad != e.live {
		return fail("strand-conservation", "per-core loads sum to %d but %d strands are live", sumLoad, e.live)
	}
	if sumRun != e.nrun {
		return fail("runnable-count", "run queues hold %d strands but nrun=%d", sumRun, e.nrun)
	}
	if blocked := len(e.blockedL); e.live < e.nrun+blocked {
		return fail("strand-conservation", "%d live < %d runnable + %d blocked", e.live, e.nrun, blocked)
	}
	sumQ := 0
	for _, level := range e.slots {
		for _, slot := range level {
			sumQ += len(slot.queue)
			if slot.used < 0 || slot.anchd < 0 {
				return fail("slot-occupancy", "%s: used=%d anchored=%d went negative",
					slotName(slot), slot.used, slot.anchd)
			}
			if cap := slot.cache.Cap * slot.cache.Block; slot.used > cap && slot.anchd > 1 {
				return fail("slot-occupancy", "%s: %d anchored tasks reserve %d > capacity %d words",
					slotName(slot), slot.anchd, slot.used, cap)
			}
		}
	}
	if sumQ != e.qd {
		return fail("no-lost-tasks", "cache queues hold %d tasks but qd=%d", sumQ, e.qd)
	}
	for i, level := range e.slots {
		for j, slot := range level {
			if m := slot.cache.Stats.Misses; m < e.prevMiss[i][j] {
				return fail("miss-monotone", "L%d[%d]: miss counter went backwards (%d -> %d)",
					i+1, j, e.prevMiss[i][j], m)
			} else {
				e.prevMiss[i][j] = m
			}
		}
	}
	return nil
}

// checkRunEnd asserts full conservation once the loop has drained: every
// strand finished, every queued task admitted, every reservation released.
func (e *engine) checkRunEnd() error {
	fail := func(name, format string, args ...any) error {
		return &InvariantError{Clock: e.clock, Name: name, Detail: fmt.Sprintf(format, args...)}
	}
	if e.live != 0 || e.nrun != 0 || len(e.blockedL) != 0 {
		return fail("strand-conservation", "run ended with %d live, %d runnable, %d blocked strands",
			e.live, e.nrun, len(e.blockedL))
	}
	if e.qd != 0 {
		return fail("no-lost-tasks", "run ended with %d tasks still queued", e.qd)
	}
	if e.chaos != nil && len(e.chaos.deferred) != 0 {
		return fail("no-lost-tasks", "run ended with %d deferred admission passes", len(e.chaos.deferred))
	}
	for _, level := range e.slots {
		for _, slot := range level {
			if slot.used != 0 || slot.anchd != 0 || len(slot.queue) != 0 {
				return fail("slot-occupancy", "%s: run ended with used=%d anchored=%d queued=%d",
					slotName(slot), slot.used, slot.anchd, len(slot.queue))
			}
		}
	}
	return nil
}

func slotName(slot *cacheSlot) string {
	return fmt.Sprintf("L%d[%d]", slot.cache.Level, slot.cache.Index)
}
