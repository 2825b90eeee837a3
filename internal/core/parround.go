package core

// Parallel round execution (DESIGN.md §11): run the per-core strand work of
// many lockstep rounds on real OS threads at once, while keeping the
// schedule and every frozen observable byte-identical to the serial engine.
//
// The engine's rounds have a rigid structure the parallelism exploits:
//
//   - Run-to-completion within a core: the front strand of a non-empty run
//     queue receives the core's full quantum at the top of every round, and
//     strands enqueued behind it cannot run until it blocks or finishes.
//   - Front stability: other cores only push to the BACK of a queue, and
//     the stealing extension only takes from the back of queues holding at
//     least two strands, so nothing but the owning core's own turn can
//     change which strand is at the front.
//
// Together these mean that as long as a front strand performs only pure
// work — loads, stores, ticks — its execution for the next many rounds is
// already determined at the current round boundary: full quantum per round,
// no scheduler decisions in between.  An epoch therefore has three phases:
//
//  1. Serial pre-round (speculate): at a round boundary, pick the front
//     strand of each active core (in core order, up to prWorkers of them)
//     and resume them all concurrently.  Memory accesses divert into
//     per-core fan-in buffers (hm/fanin.go) with a mark at every round
//     boundary; data words are touched directly, which is sound because
//     concurrently runnable strands of a race-free fork-join program have
//     disjoint footprints (the property the chaos sweeps pin).
//  2. Parallel execution: each speculator runs pure rounds on its own OS
//     thread until it (a) exhausts the epoch's fixed sync window of
//     prEpochRounds rounds (reports yBudget), (b) reaches a scheduler
//     interaction whose RESULT its own execution depends on — a join wait,
//     an allocation, an inline-spawn decision (reports ySerialize and
//     pauses mid-round), or (c) returns (reports yDone).  A plain fork the
//     speculator itself causes is NOT an interaction anymore: its placement
//     is recorded into a per-strand deferral buffer (deferFork) tagged with
//     the current epoch round, and the speculator keeps running its pure
//     stretch — the fork's result is invisible to the parent until its next
//     waitJoin, which still serializes.  Each speculator pauses on its own
//     terms; pausing is never cross-coupled through shared flags, so epoch
//     depth is independent of OS thread scheduling.  The conductor collects
//     exactly one report per speculator; all of them are parked before the
//     commit starts.
//  3. Serial commit: the normal round loop continues, but a core with an
//     unconsumed speculator replays its recorded rounds instead of running
//     strands: at commit round r < specRound the turn is pop + flush the
//     round-r access chunk into the cache model + replay the forks the
//     speculator deferred in round r (live placement, exact serial state) +
//     requeue at the front — exactly the serial pop/grant/yield-budget/
//     requeue turn.  At the report round the speculator is consumed: a
//     yBudget reporter becomes a plain runnable front strand again (it is
//     parked in exactly the state a serial budget yield leaves it in); a
//     ySerialize reporter has its partial round flushed and same-round
//     deferred forks replayed, then is resumed live with its leftover
//     budget, its next real yield handled by the ordinary switch; a yDone
//     reporter has its partial round flushed and is finished.  Cores
//     without a speculator run plain serial turns throughout.  When the
//     active set is exactly the speculator set, bulkCommit collapses the
//     shared pure prefix of the replay — R rounds of identity pop/requeue
//     pairs — into one clock advance plus one multi-round flush
//     (FlushFanRounds), preserving the (round, core) flush order.
//
// Why every observable is byte-identical to serial:
//
//   - Schedule: all scheduler state (queues, loads, joins, slots, clock)
//     is mutated only in serial phases, in the serial order — speculation
//     touches none of it.  The commit walk visits cores in the same order
//     as the serial loop, and each replayed turn performs the same queue
//     transitions the serial turn would.
//   - Cache counters: chunks are flushed in (round, core) order — the
//     serial interleaving — through the serial access walk.  A speculator resumed live continues feeding the same stream from the
//     exact point its recording stopped, within the same turn.
//   - Clock and trace: speculative rounds emit no events (pure work never
//     does), and the commit walk advances e.clock once per round like any
//     other round, so events emitted by resumed strands carry the serial
//     timestamps.
//   - Budgets: every speculated round grants the front strand the full
//     quantum, which is what the serial engine grants the first strand of
//     a turn; overshoot forgiveness at boundaries matches chargeSlow.  The
//     solo-batch fast path never engages while speculators are outstanding
//     (their queued strands keep nrun >= 1), and its absence during an
//     epoch is unobservable by the same withReference() equivalence that
//     licenses its presence.
//   - Epoch depth: the sync window only decides how far ahead a speculator
//     records before pausing.  A strand consumed early at commit simply
//     continues live, executing the identical operations it would have
//     recorded, so speculation depth is a performance knob with no
//     observable effect — OS scheduling nondeterminism cannot leak in.
//
// Failure semantics: a panic inside a speculator is recovered and reported
// as its yDone; the commit surfaces it as a *RunError at the exact round
// the serial engine would have.  Chunks recorded beyond the failing round
// are discarded uncounted (the serial engine never executed them); as in
// the seed, memory contents after a failed run are unspecified.
//
// Chaos, invariant verification and withReference runs serialize the entire
// loop (their draw streams and checks are inherently order-sensitive), so
// WithChaos + WithParallelRounds is byte-identical by construction.

import (
	"math/bits"
	"runtime"
)

// prEpochRounds is the epoch sync window: the fixed number of whole rounds
// a speculator runs ahead before pausing, unless its own scheduler
// interaction pauses it earlier.  A fixed window makes epoch depth a pure
// function of the program — every pure speculator pauses at exactly this
// round — so bulkCommit's collapsible prefix does not depend on how the OS
// happens to schedule the worker threads (an abort-flag design, where the
// first reporter curtails everyone else, degenerates to 1-round epochs
// whenever the OS runs the speculators sequentially, e.g. on a single CPU).
// It also bounds fan-in buffer growth (quantum records per round per core)
// and the serial tail after an early interaction: once one speculator is
// consumed mid-window the rest of its window replays round by round, so the
// window is kept small enough that the tail stays short.
const prEpochRounds = 64

// WithParallelRounds runs the engine's lockstep rounds on a pool of real OS
// threads: at eligible round boundaries the front strands of up to workers
// active cores execute their upcoming rounds concurrently, and a serial
// commit phase replays the recorded rounds in the exact serial order.  The
// schedule and every frozen observable — Steps, per-cache miss counters,
// placements, steals, the trace stream — are byte-identical to the serial
// default.  Chaos, invariant-checked and reference runs stay fully serial.
// workers <= 0 selects GOMAXPROCS.
func WithParallelRounds(workers int) Opt {
	return func(s *Session) {
		if s.eng != nil {
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			s.eng.prWorkers = workers
		}
	}
}

// speculate runs phases 1 and 2 of an epoch: launch the front strand of
// each active core (core order, capped at prWorkers) into concurrent pure
// execution, collect one report per speculator, and leave the consumption
// of those reports to the commit turns of the following rounds.  Called at
// a round boundary with at least two active cores.
func (e *engine) speculate() {
	specs := e.specs[:0]
	mask := e.active
	for mask != 0 && len(specs) < e.prWorkers {
		c := bits.TrailingZeros64(mask)
		mask &= mask - 1
		specs = append(specs, e.runq[c].front())
	}
	e.specs = specs
	if len(specs) < 2 {
		return
	}
	if e.prReport == nil {
		// At most prWorkers reports are ever outstanding (one per
		// speculator, and speculators are capped at prWorkers and at the
		// core count).
		n := e.prWorkers
		if n > len(e.runq) {
			n = len(e.runq)
		}
		e.prReport = make(chan *strand, n)
	}
	e.m.StartRoundFanIn()
	for _, st := range specs {
		st.spec = true
		st.specRound = 0
		st.defFks, st.defNext = st.defFks[:0], 0
		st.grant = prEpochRounds - 1 // plus the initial budget = prEpochRounds rounds
		e.specOf[st.core] = st
		if !st.started {
			st.started = true
			if !st.spawned {
				st.spawned = true
				//oblivcheck:allow determinism: speculative strand launch — pure rounds recorded per core, replayed by the serial commit walk in (round, core) order, byte-identical to the serial schedule (see the package comment)
				go st.main()
			}
		}
		st.resume <- e.quantum
	}
	e.nspec = len(specs)
	// Collect exactly one report per speculator.  Receive order is OS
	// nondeterminism and is not consulted: reports live on the strands,
	// keyed by core.  Every speculator terminates its phase on its own —
	// at its scheduler interaction or at the fixed window — so no abort
	// signal is needed.
	for range specs {
		<-e.prReport
	}
	e.m.EndRoundFanIn()
	// Hand back join recycles the speculators could not perform themselves
	// (freeJoins is engine state).  Recycle order is unobservable.
	for _, st := range specs {
		if st.putJn != nil {
			e.putJoin(st.putJn)
			st.putJn = nil
		}
	}
	e.commitRound = 0
}

// commitCore replays core c's turn for the current commit round from its
// speculator's recording (phase 3).  See the package comment for the
// round-by-round correspondence with serial turns.
func (e *engine) commitCore(c int) bool {
	st := e.specOf[c]
	if e.commitRound < st.specRound {
		// A fully speculated pure round: the serial turn would pop the
		// front, grant it the quantum, and requeue it at the budget yield.
		// Forks the speculator deferred in this round replay after the
		// chunk flush: fork machinery touches no memory, so flushing the
		// whole round's accesses first is cache-equivalent, and events
		// carry round-granular clocks either way.
		if p := e.pop(c); p != st {
			e.specFail(p)
			return true
		}
		e.m.FlushFanChunk(c, e.commitRound)
		if st.defNext < len(st.defFks) && st.defFks[st.defNext].round == e.commitRound {
			st.applyDeferred(e, e.commitRound)
		}
		e.requeueFront(st)
		return true
	}
	// The report round: consume the speculator.
	e.specOf[c] = nil
	e.nspec--
	switch st.rep.kind {
	case yBudget:
		// Stopped exactly at a round boundary, still runnable: the strand is
		// parked precisely as a serial budget yield leaves it, so this turn
		// is a plain serial turn with it at the front.  (No deferral can be
		// tagged with the report round: a yBudget report happens at the
		// boundary after round specRound-1, so every recorded fork replayed
		// in an earlier commit turn.)
		st.spec = false
		return e.runCoreRest(c, e.quantum)
	case ySerialize:
		// Paused mid-round at a scheduler interaction: flush the partial
		// round, replay forks it deferred earlier in the same round, resume
		// it live with its leftover budget, and handle its next real yield
		// exactly as runStrand would.
		if p := e.pop(c); p != st {
			e.specFail(p)
			return true
		}
		e.m.FlushFanChunk(c, st.specRound)
		st.applyDeferred(e, st.specRound)
		st.spec = false
		st.grant = 0
		st.resume <- st.budget
		leftover := e.handleYield(st, <-st.yield)
		e.runCoreRest(c, leftover)
		return true
	case yDone:
		// Returned (or panicked) mid-round: flush the partial round, replay
		// same-round deferred forks (reachable only when the strand panicked
		// between a fork and its waitJoin — the serial engine would have
		// placed those children too), then finish the strand as the serial
		// yDone handler would and give the rest of the turn to whatever the
		// completion made runnable.
		if p := e.pop(c); p != st {
			e.specFail(p)
			return true
		}
		e.m.FlushFanChunk(c, st.specRound)
		st.applyDeferred(e, st.specRound)
		st.spec = false
		leftover := st.budget
		e.handleDone(st, st.rep.panicked)
		e.runCoreRest(c, leftover)
		return true
	}
	return true
}

// bulkCommit collapses the pure replay prefix shared by every speculator
// into one bulk transition.  Eligibility: the active set is exactly the
// speculator set (every turn of the next rounds is a replay turn), each
// speculator is at its queue front, and stealing is off (idle cores'
// stealFor turns could touch queues mid-range).  Under those conditions the
// next R rounds — R capped at each speculator's report round, at its first
// pending deferred fork, and at the watchdog horizon — consist solely of
// pop + flush + requeueFront turns: the pop/requeue pairs are identities on
// every queue, no events fire, and the loop's per-round checks are all
// vacuous (every round progresses, no failure can arise, the clock stays
// below the watchdog).  The only observable work is the chunk flushes in
// (round, core) order and R quantum ticks of the clock, both performed here
// in one step; FlushFanRounds keeps the exact (round, core) flush order
// internally.  Proven observably equivalent against withReference() by
// TestParallelRoundsMatchReference.
func (e *engine) bulkCommit() {
	if e.steal || bits.OnesCount64(e.active) != e.nspec {
		return
	}
	rmax := prEpochRounds
	cores := e.bulkCores[:0]
	mask := e.active
	for mask != 0 {
		c := bits.TrailingZeros64(mask)
		mask &= mask - 1
		st := e.specOf[c]
		if st == nil || e.runq[c].front() != st {
			e.bulkCores = cores
			return
		}
		if r := st.specRound - e.commitRound; r < rmax {
			rmax = r
		}
		if st.defNext < len(st.defFks) {
			if r := st.defFks[st.defNext].round - e.commitRound; r < rmax {
				rmax = r
			}
		}
		cores = append(cores, c)
	}
	e.bulkCores = cores
	if e.watchdog > 0 {
		// Advance only while the final clock stays strictly below the
		// horizon; the crossing round goes through the per-round loop so the
		// watchdog check fires exactly where the serial engine fires it.
		if r := int((e.wdClock - e.clock - 1) / e.quantum); r < rmax {
			rmax = r
		}
	}
	if rmax < 2 {
		return // nothing to collapse beyond the turn the scan runs anyway
	}
	e.m.FlushFanRounds(cores, e.commitRound, e.commitRound+rmax)
	e.clock += int64(rmax) * e.quantum
	e.commitRound += rmax
}

// deferFork records a fork the strand caused while speculating: the closure
// performs the placement against live engine state when the commit walk
// replays this strand's current round (admission-surviving speculation).
func (st *strand) deferFork(apply func(*engine)) {
	st.defFks = append(st.defFks, deferredFork{round: st.specRound, apply: apply})
}

// applyDeferred replays the strand's deferred forks tagged with the given
// epoch round, in record order — the serial fork order within the turn.
// Entries are cleared as they apply so consumed closures are not retained.
func (st *strand) applyDeferred(e *engine, round int) {
	for st.defNext < len(st.defFks) && st.defFks[st.defNext].round == round {
		st.defFks[st.defNext].apply(e)
		st.defFks[st.defNext] = deferredFork{}
		st.defNext++
	}
}

// specFail aborts the epoch on a front-stability violation — impossible by
// construction, kept as a typed failure rather than silent corruption.  The
// unconsumed speculators are removed from their run queues and stay parked
// (leaked, like blocked strands of any failed run): the conductor is gone,
// so a serial turn later in this round must not pop one and try to resume
// it.  The loop surfaces the error at the end of the round.
func (e *engine) specFail(got *strand) {
	if got != nil {
		e.requeueFront(got)
	}
	if e.failErr == nil {
		e.failErr = &InvariantError{
			Clock:  e.clock,
			Name:   "parallel-rounds-front",
			Detail: "speculated strand no longer at the front of its core's run queue at commit",
		}
	}
	e.nspec = 0
	for i := range e.specOf {
		st := e.specOf[i]
		if st == nil {
			continue
		}
		e.specOf[i] = nil
		// Raw deque ops on purpose: the engine's counters stay as they are
		// (the run is over at the end of this round), the queue just loses
		// the orphaned speculator wherever the corruption left it.
		q := &e.runq[i]
		for n := q.size(); n > 0; n-- {
			if p := q.popFront(); p != st {
				q.pushBack(p)
			}
		}
	}
}

// specSlow is the round-boundary crossing of a speculatively executing
// strand (the spec branch of chargeSlow): mark the completed round in the
// core's fan-in buffer and either continue into the next round locally or
// report to the conductor and pause.  The engine is not touched — clock and
// queue transitions happen at commit.
func (st *strand) specSlow() {
	e := st.eng
	for st.budget <= 0 {
		st.specRound++
		e.m.MarkRound(st.core)
		if st.rounds > 0 {
			st.rounds--
			st.budget = e.quantum // overshoot forgiven, as at every boundary
			continue
		}
		// Sync window exhausted: report and pause.  The commit walk
		// re-grants a positive budget (it treats the strand as a plain
		// front strand from its report round on), so the loop exits after
		// the resume.
		st.specReport(yieldMsg{kind: yBudget})
	}
}

// specReport hands the strand's report to the epoch conductor and pauses
// until the commit walk resumes it; the strand continues serially from the
// exact point it paused (st.spec is cleared by the engine before the
// resume).
func (st *strand) specReport(msg yieldMsg) {
	st.rep = msg
	st.eng.prReport <- st
	st.recv()
}
