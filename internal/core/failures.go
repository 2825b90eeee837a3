package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"oblivhm/internal/hm"
)

// Failure injection and deterministic self-healing recovery.
//
// The paper's premise is that oblivious algorithms cannot see machine
// parameters — so the machine should be free to change underneath them,
// including losing cores mid-run.  WithFailures(seed, plan) attaches a
// seeded failure domain to a simulated session:
//
//   - fail-stop core deaths at deterministic virtual rounds: the core's run
//     queue is drained (unstarted strands migrate to survivors, in-flight
//     strands are killed and re-executed from their recorded spawn
//     closures), its parked strands are killed the same way, and the core
//     never receives work again;
//   - straggler cores: a per-core slowdown factor divides the core's
//     per-round operation budget from the start of the run, modelling a
//     core that runs slower than its siblings;
//   - transient cache faults: a cache loses its contents at a deterministic
//     round (hm.InjectCacheFault) while memory stays authoritative, so the
//     post-fault rounds pay compulsory misses again.
//
// Recovery protocol.  Every strand records the closure it was spawned from
// (strand.fn), so a killed in-flight strand is replaced by a fresh strand
// running the same closure on the least-loaded surviving core under the
// dead strand's anchor (walking up the cache hierarchy when the whole
// shadow is dead — the top cache covers every core and kills are capped at
// p-1 victims, so a survivor always exists).  The replacement inherits the
// dead strand's join and space reservation, so fork-join counting and the
// admission discipline are untouched: the parent still sees exactly one
// completion per child, and Q(λ) still drains.  Children forked by the dead
// strand before it died keep running and signal its now-orphaned join
// harmlessly; the replacement re-forks its own children, and that
// duplicated work is measured as the re-executed work fraction.  The whole
// protocol runs on the engine goroutine between rounds — recovery is
// goroutine-free and therefore as deterministic as the scheduler itself.
//
// Restartability assumption.  Re-executing a partially run task is the
// MapReduce fail-stop model: it is exact for tasks that write outputs as a
// pure function of inputs they do not overwrite (mm, mt, spmdv, the
// harness's failure golden matrix) and a deterministic-but-lossy
// approximation for in-place algorithms, whose re-executed runs still
// terminate with frozen metrics but may compute different values.  The
// determinism contract extends to failures either way: same config + seed
// → byte-identical failure schedule, recovery actions and metrics.
//
// Interplay with the fast paths: failures disable solo batch grants (a
// locally committed batch would skip the round boundaries failure events
// fire at) and parallel rounds (recovery mutates scheduler state between
// rounds, so the epoch is serialized by construction, exactly like chaos);
// both fast paths are observably equivalent to the serial lockstep, so a
// plan with no events reproduces the default metrics bit for bit.

// FailurePlan declares what a seeded failure domain injects.  The zero
// plan injects nothing (and still freezes the schedule: WithFailures with
// an empty plan reproduces the default metrics).
type FailurePlan struct {
	KillCores   int   // fail-stop core deaths, capped at p-1 so a survivor always exists
	Stragglers  int   // cores running at a reduced per-round budget, capped at p
	SlowFactor  int64 // straggler budget divisor; <= 1 defaults to 2
	CacheFaults int   // transient cache faults (contents dropped, counters kept)

	// HorizonRounds bounds the virtual round at which deaths and faults
	// fire: events land in [1, HorizonRounds].  <= 0 defaults to 128, early
	// enough that even small workloads run most of their life degraded.
	HorizonRounds int
}

// validate rejects nonsensical plans with a typed *FailureError (kind
// "plan") before the run starts.
func (p FailurePlan) validate() error {
	bad := func(field string, v int64) error {
		return &FailureError{Kind: "plan", Detail: fmt.Sprintf("%s must be >= 0, got %d", field, v)}
	}
	switch {
	case p.KillCores < 0:
		return bad("KillCores", int64(p.KillCores))
	case p.Stragglers < 0:
		return bad("Stragglers", int64(p.Stragglers))
	case p.SlowFactor < 0:
		return bad("SlowFactor", p.SlowFactor)
	case p.CacheFaults < 0:
		return bad("CacheFaults", int64(p.CacheFaults))
	case p.HorizonRounds < 0:
		return bad("HorizonRounds", int64(p.HorizonRounds))
	}
	return nil
}

// failEventKind discriminates scheduled failure events.
type failEventKind int

const (
	fkKill failEventKind = iota
	fkFault
)

// failEvent is one scheduled failure: a core death or a cache fault firing
// at a virtual round.
type failEvent struct {
	round        int64
	kind         failEventKind
	core         int // fkKill: victim core
	level, index int // fkFault: cache coordinates
}

// failInj is the failure-domain state attached to an engine.  The schedule
// in events is re-derived identically at the start of every run from
// (seed, plan, machine shape), so repeated runs replay the same failures.
type failInj struct {
	seed int64
	plan FailurePlan

	events   []failEvent
	next     int     // next unfired event index
	round    int64   // loop rounds completed (failures disable batching, so rounds == iterations)
	dead     uint64  // bitmask of dead cores
	slow     []int64 // per-core budget divisor; 0/1 = full speed
	fired    bool    // at least one event has fired
	missBase []int64 // per-level total misses at the first event

	rep RecoveryReport
}

// derive (re)computes the failure schedule for a run on a p-core machine.
// Everything is drawn from a splitmix64 stream seeded by the failure seed —
// the same generator chaos uses — so the schedule is a pure function of
// (seed, plan, machine shape).
func (f *failInj) derive(p int, m *hm.Machine) {
	f.rep = RecoveryReport{Seed: f.seed}
	f.events = f.events[:0]
	f.next, f.round, f.dead = 0, 0, 0
	f.fired, f.missBase = false, nil
	if f.slow == nil || len(f.slow) != p {
		f.slow = make([]int64, p)
	}
	for i := range f.slow {
		f.slow[i] = 0
	}
	rng := chaosRNG{state: uint64(f.seed)}
	rng.next() // decorrelate nearby seeds, as in newChaos

	horizon := f.plan.HorizonRounds
	if horizon <= 0 {
		horizon = 128
	}
	kills := f.plan.KillCores
	if kills > p-1 {
		kills = p - 1
	}
	perm := make([]int, p)
	for i := range perm {
		perm[i] = i
	}
	// Distinct victims via a partial Fisher-Yates walk: capping at p-1
	// distinct cores guarantees a survivor, which the recovery redirect
	// relies on.
	for i := 0; i < kills; i++ {
		j := i + rng.intn(p-i)
		perm[i], perm[j] = perm[j], perm[i]
		f.events = append(f.events, failEvent{
			round: int64(1 + rng.intn(horizon)), kind: fkKill, core: perm[i],
		})
	}

	slowf := f.plan.SlowFactor
	if slowf <= 1 {
		slowf = 2
	}
	stragglers := f.plan.Stragglers
	if stragglers > p {
		stragglers = p
	}
	for i := range perm {
		perm[i] = i
	}
	// Stragglers are slow from round 0 (a core that was always the weak
	// sibling); overlap with later deaths is harmless — slowdown is moot
	// once the core is dead.
	for i := 0; i < stragglers; i++ {
		j := i + rng.intn(p-i)
		perm[i], perm[j] = perm[j], perm[i]
		f.slow[perm[i]] = slowf
		f.rep.StragglerCores = append(f.rep.StragglerCores, perm[i])
	}
	sort.Ints(f.rep.StragglerCores)
	if stragglers > 0 {
		f.rep.SlowFactor = slowf
	}

	for i := 0; i < f.plan.CacheFaults; i++ {
		lv := 1 + rng.intn(len(m.ByLevel))
		f.events = append(f.events, failEvent{
			round: int64(1 + rng.intn(horizon)), kind: fkFault,
			level: lv, index: rng.intn(len(m.ByLevel[lv-1])),
		})
	}
	// Stable sort: same-round events keep derivation order (kills before
	// faults, earlier draws first), part of the frozen schedule.
	sort.SliceStable(f.events, func(a, b int) bool { return f.events[a].round < f.events[b].round })
}

// coreBudget applies the straggler slowdown to a core's per-round budget.
func (f *failInj) coreBudget(c int, budget int64) int64 {
	if s := f.slow[c]; s > 1 {
		budget /= s
		if budget < 1 {
			budget = 1
		}
	}
	return budget
}

// fireFailures fires every event scheduled at or before the current round,
// reporting whether any action ran (a recovery round counts as progress for
// the deadlock backstop: replacements and migrations re-arm the schedule).
// Called at the top of every loop iteration while failures are enabled.
func (e *engine) fireFailures() bool {
	f := e.fail
	f.round++
	acted, killed := false, false
	for f.next < len(f.events) && f.events[f.next].round <= f.round {
		ev := f.events[f.next]
		f.next++
		e.noteFirstFailure()
		switch ev.kind {
		case fkKill:
			e.killCore(ev.core)
			acted, killed = true, true
		case fkFault:
			dropped := e.m.InjectCacheFault(ev.level, ev.index)
			f.rep.CacheFaults++
			f.rep.FaultedBlocks += dropped
			e.emit(EvFault, -1, ev.level, ev.index, dropped)
			acted = true
		}
	}
	if killed {
		f.rep.RecoveryRounds++
	}
	return acted
}

// noteFirstFailure stamps the clock and the per-level miss baseline at the
// first fired event, from which the post-failure miss deltas are computed.
func (e *engine) noteFirstFailure() {
	f := e.fail
	if f.fired {
		return
	}
	f.fired = true
	f.rep.FirstFailureClock = e.clock
	f.missBase = make([]int64, len(e.slots))
	for i, level := range e.slots {
		var tot int64
		for _, sl := range level {
			tot += sl.cache.Stats.Misses
		}
		f.missBase[i] = tot
	}
}

// killCore fail-stops core c: drain its run queue (migrating unstarted
// strands, killing started ones), kill its parked strands, and mark it dead
// so no placement ever targets it again.
func (e *engine) killCore(c int) {
	f := e.fail
	if f.dead&(1<<uint(c)) != 0 {
		return
	}
	f.dead |= 1 << uint(c)
	f.rep.DeadCores = append(f.rep.DeadCores, c)
	e.emit(EvCoreFail, c, 0, 0, 0)
	for {
		st := e.pop(c)
		if st == nil {
			break
		}
		if st.started {
			e.killStrand(st)
		} else {
			e.migrateStrand(st)
		}
	}
	// Parked strands die too: their stacks reference the dead core.  The
	// blocked list mutates as killStrand untracks, so collect first; the
	// list order is engine-serial and therefore deterministic.
	var victims []*strand
	for _, st := range e.blockedL {
		if st.core == c {
			victims = append(victims, st)
		}
	}
	for _, st := range victims {
		e.killStrand(st)
	}
	e.active &^= 1 << uint(c)
}

// migrateStrand retargets an unstarted strand from a dead core to a
// surviving core under its anchor.  Nothing ran yet, so only the core
// changes — the same invariant the stealing extension relies on.
func (e *engine) migrateStrand(st *strand) {
	target := e.redirectCore(st.anchor)
	e.load[st.core]--
	e.load[target]++
	st.core, st.ctx.core = target, target
	e.emit(EvMigrate, target, st.anchor.Level, st.anchor.Index, 0)
	e.enqueue(st)
	e.fail.rep.MigratedStrands++
}

// poisonBudget is the sentinel grant that tells a parked strand goroutine
// to unwind: recv panics with killedStrand, the panic is recovered by the
// pooled worker loop like any task failure, and killStrand consumes the
// resulting yDone.  Real budgets are always positive.
const poisonBudget = int64(math.MinInt64)

// killedStrand is the private panic value of a poisoned strand.
type killedStrand struct{}

// killStrand kills an in-flight strand of a dead core and re-executes its
// work: the strand goroutine is unwound via the resume-channel poison (a
// strict ping-pong turn, so the protocol invariants hold), its engine
// accounting — including inline-spawn frames open on its stack — is rolled
// back, and a replacement strand running the same recorded closure is
// enqueued on a surviving core with the dead strand's join and reservation.
func (e *engine) killStrand(st *strand) {
	f := e.fail
	if st.blockIdx >= 0 {
		e.untrackBlocked(st)
	}
	if st.waitingOn != nil {
		// Orphan the join the dead strand was parked on: its last child's
		// completion must not resurrect the dead strand.  The join leaks
		// (never recycled) — the replacement waits on a fresh one.
		st.waitingOn.waiter = nil
		st.waitingOn = nil
	}
	fn, jn, label, anchor := st.fn, st.jn, st.label, st.anchor
	reserved, resSpace := st.reserved, st.resSpace

	// Unwind the goroutine.  The strand is parked in recv (inside
	// chargeSlow, park or requeue); the poison makes recv panic with
	// killedStrand, which unwinds the task function and surfaces as a yDone
	// through the pooled worker loop's recover.
	st.grant = 0
	st.resume <- poisonBudget
	msg := <-st.yield
	if msg.kind != yDone {
		panic(fmt.Sprintf("core: poisoned strand yielded %d, want yDone", msg.kind))
	}

	// Roll back inline-spawn frames the panic skipped over: each open frame
	// had incremented live/load for its inline child, and anchored frames
	// hold a space reservation to release (innermost first).
	for i := len(st.inline) - 1; i >= 0; i-- {
		fr := st.inline[i]
		e.live--
		e.load[st.core]--
		if fr.slot != nil {
			fr.slot.used -= fr.space
			fr.slot.anchd--
			e.admit(fr.slot)
		}
	}
	st.inline = st.inline[:0]

	st.done = true
	e.live--
	e.load[st.core]--
	f.rep.KilledStrands++
	st.fn, st.jn, st.reserved, st.waitingOn = nil, nil, nil, nil
	e.pool = append(e.pool, st)

	// Replacement: same closure, same join, same reservation, surviving
	// core.  A replacement of a replacement stays tagged recov.
	target := e.redirectCore(anchor)
	ns := e.newStrand(target, anchor, jn, fn, label)
	ns.reserved, ns.resSpace = reserved, resSpace
	ns.recov = true
	f.rep.ReexecStrands++
	e.emit(EvReexec, ns.core, anchor.Level, anchor.Index, resSpace)
	e.enqueue(ns)
}

// markRecov propagates the re-execution tag to strands descending from a
// replacement, so their operations count toward the re-executed work
// fraction.  No-op when failures are off (recov is never set then).
func (e *engine) markRecov(st *strand, parentRecov bool) {
	if parentRecov && e.fail != nil {
		st.recov = true
		e.fail.rep.ReexecStrands++
	}
}

// redirectCore picks the least-loaded surviving core under anchor, walking
// up the cache hierarchy while the whole shadow is dead.  The scan order
// (ascending core, strictly-smaller displaces) matches leastLoadedCore, so
// redirected placement stays inside the frozen total order.
func (e *engine) redirectCore(anchor *hm.Cache) int {
	dead := e.fail.dead
	for c := anchor; c != nil; c = c.Parent() {
		best, bestLoad := -1, int(^uint(0)>>1)
		for i := c.CoreLo; i < c.CoreHi; i++ {
			if dead&(1<<uint(i)) != 0 {
				continue
			}
			if e.load[i] < bestLoad {
				best, bestLoad = i, e.load[i]
			}
		}
		if best >= 0 {
			return best
		}
	}
	panic("core: no surviving core (kills are capped at p-1, so this is an engine bug)")
}

// ---- options ----

// WithFailures attaches a seeded failure domain to a simulated session:
// fail-stop core deaths, straggler slowdowns and transient cache faults
// drawn deterministically from (seed, plan), with self-healing recovery of
// the work lost to dead cores.  Same seed, plan, workload and machine →
// byte-identical failure schedule, recovery actions and metrics.  The
// recovery hot path runs entirely on the engine goroutine; parallel rounds
// (WithParallelRounds) are serialized by construction, exactly as under
// chaos.  See RunStats.Recovery for the degraded-mode report.
func WithFailures(seed int64, plan FailurePlan) Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.fail = &failInj{seed: seed, plan: plan}
		}
	}
}

// WithWatchdog bounds a run to the given number of virtual rounds: a run
// still live past the budget returns a *FailureError (kind "watchdog",
// errors.Is-matchable against ErrWatchdog) carrying the scheduler forensics
// instead of hanging.  The watchdog is observation-only below the budget —
// it cannot change a schedule — so metrics are untouched for any run that
// finishes in time.  rounds <= 0 disables it.
func WithWatchdog(rounds int64) Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.watchdog = rounds
		}
	}
}

// ---- the degraded-mode report ----

// RecoveryReport summarises what a failure-injected run survived: which
// cores died and when, what the scheduler migrated and re-executed, and
// what the degradation cost in work and misses.  Attached to
// RunStats.Recovery (nil when failures are off); a pure function of
// (config, seed), pinned by the harness golden failure matrix.
type RecoveryReport struct {
	Seed           int64 `json:"seed"`
	DeadCores      []int `json:"dead_cores,omitempty"`      // in death order
	StragglerCores []int `json:"straggler_cores,omitempty"` // ascending
	SlowFactor     int64 `json:"slow_factor,omitempty"`
	CacheFaults    int   `json:"cache_faults,omitempty"`
	FaultedBlocks  int64 `json:"faulted_blocks,omitempty"`

	MigratedStrands int `json:"migrated_strands,omitempty"` // unstarted strands moved off dead cores
	KilledStrands   int `json:"killed_strands,omitempty"`   // in-flight strands unwound
	ReexecStrands   int `json:"reexec_strands,omitempty"`   // replacements plus their re-forked descendants
	RecoveryRounds  int `json:"recovery_rounds,omitempty"`  // rounds in which a kill-recovery ran

	FirstFailureClock int64 `json:"first_failure_clock,omitempty"`
	TotalOps          int64 `json:"total_ops"`  // operations granted to all strands
	ReexecOps         int64 `json:"reexec_ops"` // operations granted to recovery-tagged strands

	// PostFailureMissDelta[i] is the growth of level-(i+1) total misses
	// after the first failure event — the locality cost of the degraded
	// phase.  nil when no event fired.
	PostFailureMissDelta []int64 `json:"post_failure_miss_delta,omitempty"`
}

// ReexecWorkFraction is the share of all granted operations spent on
// re-executed (recovery-tagged) strands.
func (r *RecoveryReport) ReexecWorkFraction() float64 {
	if r.TotalOps <= 0 {
		return 0
	}
	return float64(r.ReexecOps) / float64(r.TotalOps)
}

func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery report (failure seed %d):\n", r.Seed)
	if len(r.DeadCores) > 0 {
		fmt.Fprintf(&b, "  dead cores: %v (first failure at clock %d)\n", r.DeadCores, r.FirstFailureClock)
		fmt.Fprintf(&b, "  recovery: %d migrated, %d killed in flight, %d re-executed strands over %d recovery rounds\n",
			r.MigratedStrands, r.KilledStrands, r.ReexecStrands, r.RecoveryRounds)
	} else {
		b.WriteString("  dead cores: none\n")
	}
	if len(r.StragglerCores) > 0 {
		fmt.Fprintf(&b, "  stragglers: %v at 1/%d budget\n", r.StragglerCores, r.SlowFactor)
	}
	if r.CacheFaults > 0 {
		fmt.Fprintf(&b, "  cache faults: %d (%d resident blocks dropped)\n", r.CacheFaults, r.FaultedBlocks)
	}
	fmt.Fprintf(&b, "  work: %d ops total, %d re-executed (%.2f%%)\n",
		r.TotalOps, r.ReexecOps, 100*r.ReexecWorkFraction())
	if len(r.PostFailureMissDelta) > 0 {
		b.WriteString("  post-failure miss delta:")
		for i, d := range r.PostFailureMissDelta {
			fmt.Fprintf(&b, " L%d=%d", i+1, d)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// report clones the run's recovery state into the externally visible
// RecoveryReport, computing the post-failure miss deltas from the baseline
// stamped at the first event.
func (f *failInj) report(e *engine) *RecoveryReport {
	rep := f.rep
	rep.DeadCores = append([]int(nil), f.rep.DeadCores...)
	rep.StragglerCores = append([]int(nil), f.rep.StragglerCores...)
	if f.missBase != nil {
		rep.PostFailureMissDelta = make([]int64, len(e.slots))
		for i, level := range e.slots {
			var tot int64
			for _, sl := range level {
				tot += sl.cache.Stats.Misses
			}
			rep.PostFailureMissDelta[i] = tot - f.missBase[i]
		}
	}
	return &rep
}
