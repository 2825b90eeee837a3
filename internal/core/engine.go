package core

import (
	"math/bits"

	"oblivhm/internal/hm"
)

// The simulated executor is a cooperative fork-join engine over the virtual
// cores of an hm.Machine.  Exactly one strand (lightweight task) executes at
// any real instant — the engine hands a budget of virtual operations to one
// strand at a time via channels — so the simulation is fully deterministic:
// cores proceed in lockstep rounds of `quantum` operations, realising the
// model's "all cores run at the same rate" assumption.  Virtual parallel
// time is the number of rounds times the quantum.
//
// # Fast path and the determinism contract
//
// The engine freezes its observable behaviour — Steps, every per-cache miss
// counter, PlacedAt, Steals, and the trace event stream — while taking three
// shortcuts on the hot path (DESIGN.md §7):
//
//   - Batched budgets: when a strand is the only runnable strand anywhere
//     (e.nrun == 0 after it is popped), interleaving cannot be observed, so
//     the grant carries an effectively unbounded number of whole rounds.
//     The strand commits round boundaries locally in charge() — bumping the
//     clock and refilling its quantum without a channel crossing — and the
//     batch is truncated at the next boundary as soon as the strand makes
//     anything else runnable (every such transition funnels through
//     enqueue(), which sets batchAbort).  This is the adaptive quantum: one
//     live strand runs in arbitrarily long grants, concurrent strands fall
//     back to the exact per-round lockstep.
//   - Pooling: strand objects, their channels, and their goroutines are
//     recycled within a run.  A pooled goroutine parks on its resume channel
//     between assignments and keeps its grown stack, which matters for the
//     deeply recursive algorithms.
//   - Active-core scan: the round loop walks a bitmask of cores with
//     non-empty run queues (the machine model caps p at 64) instead of
//     scanning every runq slice; with stealing enabled it falls back to the
//     full scan because idle cores must get their stealFor turn.
//
// withReference() disables all of the above so tests can cross-check the
// fast path against the seed schedule operation for operation.

type yieldKind int

const (
	yBudget    yieldKind = iota // budget exhausted, still runnable
	yBlocked                    // parked on a join or a cache queue
	yRequeue                    // inline finish must reorder behind admitted strands
	yDone                       // function returned (or panicked)
	ySerialize                  // speculative strand reached a scheduler interaction (parround.go)
)

type yieldMsg struct {
	kind     yieldKind
	panicked any
}

// strand is one schedulable thread of the computation, pinned to a core.
type strand struct {
	eng     *engine
	core    int
	anchor  *hm.Cache // cache the strand's task is anchored at
	fn      func(*Ctx)
	ctx     *Ctx
	resume  chan int64
	yield   chan yieldMsg
	budget  int64
	rounds  int64 // whole rounds left in the current batch grant
	grant   int64 // batch rounds for the next resume, written by the engine
	started bool  // this assignment has received its first grant
	spawned bool  // a pooled goroutine is attached to the channels
	done    bool

	label    string     // task label carried into failure reports
	blockIdx int        // index in the engine's blocked list, -1 if not parked
	jn       *join      // join to signal on completion
	reserved *cacheSlot // space reservation to release on completion
	resSpace int64

	// Parallel-rounds speculation state (parround.go).  spec marks a strand
	// executing concurrently in an epoch's execution phase; specRound counts
	// the pure rounds it completed before reporting; rep carries the report
	// (written before the prReport send, read after the receive — the
	// channel is the happens-before edge); putJn parks a join recycle that
	// the strand could not hand to the engine while speculating; defFks and
	// defNext hold the forks the strand caused while speculating, recorded
	// instead of executed and replayed by the commit walk at their exact
	// serial rounds (appended by the speculator thread, read by the engine
	// thread — prReport is again the happens-before edge).
	spec      bool
	specRound int
	rep       yieldMsg
	putJn     *join
	defFks    []deferredFork
	defNext   int

	// Failure-recovery state (failures.go).  recov tags a strand whose work
	// is re-execution after a core death (replacements and their re-forked
	// descendants), feeding the re-executed work fraction; waitingOn is the
	// join the strand is parked on, so killStrand can orphan it; inline is
	// the stack of inline-spawn frames open on the strand's goroutine stack,
	// so a kill-panic's skipped epilogues can be rolled back.  All three are
	// only maintained while failures are enabled.
	recov     bool
	waitingOn *join
	inline    []inlineFrame
}

// deferredFork is one fork recorded by a speculating strand (parround.go):
// the epoch round it happened in and a closure that performs the placement
// against live engine state.  Placement decisions (least-loaded scans,
// admission checks) happen inside apply, at replay time, when the engine
// state is exactly what the serial schedule would present at that round.
type deferredFork struct {
	round int
	apply func(*engine)
}

// inlineFrame records the engine accounting of one open inline spawn
// (inlineSB / inlineAnchored): each frame holds a live/load increment, and
// anchored frames additionally a space reservation at slot.
type inlineFrame struct {
	slot  *cacheSlot
	space int64
}

// join is a fork-join counter: pending children plus the parked parent.
type join struct {
	pending int
	waiter  *strand
}

// cacheSlot carries the scheduler state attached to one cache: the space
// used by currently anchored tasks and the queue Q(λ) of tasks waiting for
// space (paper §III-B).
type cacheSlot struct {
	cache  *hm.Cache
	used   int64
	queue  []pending
	anchd  int // number of tasks currently anchored here
	placed int // lifetime count, for the stats/tests
}

// pending is a task admitted to Q(λ) but not yet running.  Held by value in
// the queue — spawning allocates nothing for it.
type pending struct {
	space int64
	fn    func(*Ctx)
	jn    *join
	label string
	recov bool // spawned by a recovery-tagged strand (failures.go)
}

// deque is a per-core run queue: strands leave at the front, join at the
// back, and a strand that exhausted its round budget is put back at the
// front without reallocating (the seed engine re-sliced on every round).
type deque struct {
	buf  []*strand
	head int
}

func (d *deque) size() int   { return len(d.buf) - d.head }
func (d *deque) empty() bool { return len(d.buf) == d.head }

// front peeks at the next strand to run without removing it.
func (d *deque) front() *strand {
	if d.empty() {
		return nil
	}
	return d.buf[d.head]
}

func (d *deque) pushBack(st *strand) { d.buf = append(d.buf, st) }

func (d *deque) pushFront(st *strand) {
	if d.head > 0 {
		d.head--
		d.buf[d.head] = st
		return
	}
	if len(d.buf) == 0 {
		d.buf = append(d.buf, st) // reuses the retained capacity
		return
	}
	d.buf = append([]*strand{st}, d.buf...)
}

func (d *deque) popFront() *strand {
	if d.empty() {
		return nil
	}
	st := d.buf[d.head]
	d.buf[d.head] = nil
	d.head++
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
	}
	return st
}

func (d *deque) popBack() *strand {
	if d.empty() {
		return nil
	}
	st := d.buf[len(d.buf)-1]
	d.buf[len(d.buf)-1] = nil
	d.buf = d.buf[:len(d.buf)-1]
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
	}
	return st
}

// batchRounds is the grant handed to a solo strand: effectively unbounded,
// truncated by the first enqueue.  Bounded only to keep clock arithmetic
// visibly safe (2^40 rounds of any quantum never overflows an int64 clock
// driven by real work).
const batchRounds = int64(1) << 40

type engine struct {
	s       *Session
	m       *hm.Machine
	quantum int64
	flat    bool // E13 ablation: ignore cache levels above L1 when placing
	steal   bool // extension: idle cores steal runnable strands (§VII)
	steals  int64
	trace   *Trace

	slots [][]*cacheSlot // mirrors m.ByLevel
	runq  []deque        // per-core runnable queues
	load  []int          // per-core count of live assigned strands
	live  int            // strands not yet done
	nrun  int            // strands currently sitting in run queues
	qd    int            // tasks sitting in cache queues
	clock int64

	active     uint64 // bitmask of cores with non-empty run queues
	batchAbort bool   // an enqueue happened during the outstanding grant
	reference  bool   // disable the fast paths (seed-equivalent schedule)
	pool       []*strand
	freeJoins  []*join
	failErr    error // first strand failure, as a typed *RunError

	chaos    *chaos    // nil unless WithChaos: deterministic fault injector
	verify   bool      // WithInvariants / WithChaos: per-round invariant checks
	blockedL []*strand // strands currently parked (joins), for forensics
	prevMiss [][]int64 // per-slot miss counters at the last verified round

	// Parallel-rounds state (parround.go).  prWorkers is the WithParallelRounds
	// setting (0 = off); the rest is per-epoch: specOf maps a core to its
	// speculator until the commit walk consumes its report, nspec counts
	// outstanding speculators, commitRound is the loop round index relative
	// to the epoch's start, and prReport collects reports from the
	// concurrently executing strands.
	prWorkers   int
	specOf      []*strand
	nspec       int
	commitRound int
	prReport    chan *strand
	specs       []*strand // epoch scratch
	bulkCores   []int     // bulkCommit scratch
	prSpecHook  func()    // test-only: runs right after speculate() arms an epoch

	// Failure injection (failures.go).  fail is the seeded failure domain
	// (nil unless WithFailures); watchdog is the round budget from
	// WithWatchdog (0 = off) and wdClock its clock equivalent, computed at
	// run start.
	fail     *failInj
	watchdog int64
	wdClock  int64
}

func newEngine(s *Session, m *hm.Machine) *engine {
	e := &engine{s: s, m: m, quantum: 32}
	e.slots = make([][]*cacheSlot, len(m.ByLevel))
	for i, level := range m.ByLevel {
		e.slots[i] = make([]*cacheSlot, len(level))
		for j, c := range level {
			e.slots[i][j] = &cacheSlot{cache: c}
		}
	}
	e.runq = make([]deque, m.Cores())
	e.load = make([]int, m.Cores())
	e.specOf = make([]*strand, m.Cores())
	return e
}

func (e *engine) slotOf(c *hm.Cache) *cacheSlot { return e.slots[c.Level-1][c.Index] }

// newJoin takes a join from the free list (joins churn at every fork site;
// waitJoin recycles them once the last child has signalled).
func (e *engine) newJoin() *join {
	if n := len(e.freeJoins); n > 0 {
		jn := e.freeJoins[n-1]
		e.freeJoins = e.freeJoins[:n-1]
		return jn
	}
	return &join{}
}

func (e *engine) putJoin(jn *join) {
	jn.pending, jn.waiter = 0, nil
	e.freeJoins = append(e.freeJoins, jn)
}

// newStrand creates (but does not start) a strand pinned to core, reusing a
// pooled strand (object, channels, goroutine) when one is free.
func (e *engine) newStrand(core int, anchor *hm.Cache, jn *join, fn func(*Ctx), label string) *strand {
	// Dead cores never receive new work: any placement that lands on one is
	// redirected to the least-loaded survivor under the same anchor.  The
	// anchor (and any reservation) stays put, exactly as under stealing.
	if f := e.fail; f != nil && f.dead&(1<<uint(core)) != 0 {
		core = e.redirectCore(anchor)
	}
	var st *strand
	if n := len(e.pool); n > 0 {
		st = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		st.core, st.anchor, st.fn, st.jn = core, anchor, fn, jn
		st.reserved, st.resSpace = nil, 0
		st.started, st.done = false, false
		st.budget, st.rounds, st.grant = 0, 0, 0
		st.spec, st.specRound, st.putJn = false, 0, nil
		st.defFks, st.defNext = st.defFks[:0], 0
		st.recov, st.waitingOn = false, nil
		st.inline = st.inline[:0]
		st.ctx.core, st.ctx.anchor = core, anchor
	} else {
		// Cap-1 channels: the protocol is strict ping-pong (at most one
		// message in flight per channel), and a buffered send lets the
		// sender proceed straight to its own blocking receive without the
		// unbuffered direct-handoff machinery.
		st = &strand{
			eng:    e,
			core:   core,
			anchor: anchor,
			fn:     fn,
			resume: make(chan int64, 1),
			yield:  make(chan yieldMsg, 1),
			jn:     jn,
		}
		st.ctx = &Ctx{s: e.s, core: core, anchor: anchor, st: st}
	}
	st.label = label
	st.blockIdx = -1
	e.live++
	e.load[core]++
	return st
}

// enqueue appends st to its core's run queue.  This is the single point at
// which anything becomes runnable, so it also truncates an outstanding solo
// batch grant: the next round boundary the granted strand crosses yields to
// the engine instead of continuing, restoring exact lockstep interleaving.
func (e *engine) enqueue(st *strand) {
	if st.blockIdx >= 0 {
		e.untrackBlocked(st)
	}
	e.runq[st.core].pushBack(st)
	e.nrun++
	e.active |= 1 << uint(st.core)
	e.batchAbort = true
}

// trackBlocked / untrackBlocked maintain the parked-strand list consumed by
// the deadlock forensics (swap-remove keyed by the index stored on the
// strand, so both are O(1)).  enqueue is the single point at which a parked
// strand becomes runnable again, so untracking there is complete.
func (e *engine) trackBlocked(st *strand) {
	st.blockIdx = len(e.blockedL)
	e.blockedL = append(e.blockedL, st)
}

func (e *engine) untrackBlocked(st *strand) {
	last := len(e.blockedL) - 1
	e.blockedL[st.blockIdx] = e.blockedL[last]
	e.blockedL[st.blockIdx].blockIdx = st.blockIdx
	e.blockedL[last] = nil
	e.blockedL = e.blockedL[:last]
	st.blockIdx = -1
}

// requeueFront puts a strand that exhausted its round budget back at the
// front of its queue (run-to-completion order within the core).
func (e *engine) requeueFront(st *strand) {
	e.runq[st.core].pushFront(st)
	e.nrun++
	e.active |= 1 << uint(st.core)
}

func (e *engine) pop(core int) *strand {
	st := e.runq[core].popFront()
	if st == nil {
		return nil
	}
	e.nrun--
	if e.runq[core].empty() {
		e.active &^= 1 << uint(core)
	}
	return st
}

// run executes root anchored at the smallest cache fitting space, returning
// a typed error (*RunError, *DeadlockError, *InvariantError) on failure.
func (e *engine) run(space int64, root func(*Ctx)) error {
	e.clock = 0
	e.failErr = nil
	e.nrun, e.active = 0, 0
	for i := range e.runq {
		e.runq[i] = deque{}
	}
	e.blockedL = e.blockedL[:0]
	e.nspec, e.commitRound = 0, 0
	for i := range e.specOf {
		e.specOf[i] = nil
	}
	if e.chaos != nil {
		e.chaos.deferred = e.chaos.deferred[:0]
	}
	if e.fail != nil {
		if err := e.fail.plan.validate(); err != nil {
			return err
		}
		e.fail.derive(e.m.Cores(), e.m)
	}
	e.wdClock = e.watchdog * e.quantum
	if e.verify {
		e.initInvariants()
	}
	defer e.drain()
	anchor := e.m.ByLevel[e.m.SmallestFit(space)-1][0]
	slot := e.slotOf(anchor)
	st := e.newStrand(anchor.CoreLo, anchor, nil, root, "root")
	st.reserved = slot
	st.resSpace = space
	slot.used += space
	slot.anchd++
	slot.placed++
	e.emit(EvAnchor, st.core, anchor.Level, anchor.Index, space)
	e.enqueue(st)
	if err := e.loop(); err != nil {
		return err
	}
	if e.verify {
		return e.checkRunEnd()
	}
	return nil
}

// drain releases the pooled worker goroutines at the end of a run (they
// would otherwise outlive the engine parked on their resume channels).
// Strands still blocked when a run fails leak exactly as in the seed.
func (e *engine) drain() {
	for i, st := range e.pool {
		if st.spawned {
			close(st.resume)
		}
		e.pool[i] = nil
	}
	e.pool = e.pool[:0]
}

func (e *engine) loop() error {
	scanAll := e.steal || e.reference
	// Parallel rounds are eligible only when nothing observes scheduling at
	// sub-round granularity: chaos draws, invariant checks, the reference
	// schedule and failure recovery (which mutates scheduler state between
	// rounds) are inherently serial, so those runs stay on the serial path
	// (and are byte-identical by construction).
	parOK := e.prWorkers >= 2 && e.chaos == nil && !e.verify && !e.reference && e.fail == nil
	for e.live > 0 || e.qd > 0 {
		// Chaos: admissions deferred at the previous round boundary fire
		// before the scan, so deferral perturbs timing without ever costing
		// liveness (the flush bypasses the deferral coin).
		if e.chaos != nil && len(e.chaos.deferred) > 0 {
			defs := e.chaos.deferred
			e.chaos.deferred = e.chaos.deferred[:0]
			for _, slot := range defs {
				e.admitNow(slot)
			}
		}
		// Failure events fire at round boundaries, before the scan: no strand
		// is mid-grant, so every live strand is in a queue or parked and the
		// recovery protocol sees a consistent scheduler state.
		recovered := false
		if e.fail != nil {
			recovered = e.fireFailures()
		}
		if parOK {
			if e.nspec == 0 && bits.OnesCount64(e.active) >= 2 {
				e.speculate()
				if e.nspec > 0 && e.prSpecHook != nil {
					e.prSpecHook()
				}
			}
			if e.nspec > 0 {
				// Collapse the pure replay prefix shared by every speculator
				// into one bulk transition (parround.go).  Re-checked every
				// round: an epoch capped by a deferred fork or a consumed
				// report may expose a second pure stretch.
				e.bulkCommit()
			}
		}
		progressed := false
		if scanAll {
			for c := range e.runq {
				if e.fail != nil && e.fail.dead&(1<<uint(c)) != 0 {
					continue
				}
				if e.runCore(c) {
					progressed = true
				}
			}
		} else {
			// Visit only cores with runnable strands, in core order.  The
			// mask is re-read after every visited core, so cores activated
			// mid-round by spawns still get their turn this round exactly as
			// in the full scan.
			for c := 0; c < len(e.runq); c++ {
				m := e.active >> uint(c)
				if m == 0 {
					break
				}
				c += bits.TrailingZeros64(m)
				if e.runCore(c) {
					progressed = true
				}
			}
		}
		e.clock += e.quantum
		e.commitRound++
		if e.failErr != nil {
			return e.failErr
		}
		if e.watchdog > 0 && e.clock >= e.wdClock && (e.live > 0 || e.qd > 0) {
			fr := e.forensics()
			fe := &FailureError{
				Kind:      "watchdog",
				Clock:     e.clock,
				Detail:    "round budget exhausted with work still live",
				Forensics: &fr,
			}
			if e.fail != nil {
				fe.Recovery = e.fail.report(e)
			}
			return fe
		}
		if !progressed && !recovered && (e.chaos == nil || len(e.chaos.deferred) == 0) {
			return &DeadlockError{Report: e.forensics()}
		}
		if e.verify {
			if err := e.checkInvariants(); err != nil {
				return err
			}
		}
	}
	return nil
}

// forensics assembles the structured deadlock report: per-core queue depths
// and loads, every parked strand's anchor, and the admission state of every
// cache slot holding reservations or starving queued tasks.
func (e *engine) forensics() DeadlockReport {
	r := DeadlockReport{Clock: e.clock, Live: e.live, Runnable: e.nrun, Queued: e.qd}
	for c := range e.runq {
		r.Cores = append(r.Cores, CoreState{Core: c, QueueDepth: e.runq[c].size(), Load: e.load[c]})
	}
	for _, st := range e.blockedL {
		b := BlockedStrand{Core: st.core, Label: st.label}
		if st.anchor != nil {
			b.AnchorLevel, b.AnchorIndex = st.anchor.Level, st.anchor.Index
		}
		r.Blocked = append(r.Blocked, b)
	}
	for _, level := range e.slots {
		for _, slot := range level {
			if slot.used == 0 && slot.anchd == 0 && len(slot.queue) == 0 {
				continue
			}
			s := SlotState{
				Level:    slot.cache.Level,
				Index:    slot.cache.Index,
				Used:     slot.used,
				Capacity: slot.cache.Cap * slot.cache.Block,
				Anchored: slot.anchd,
				Queued:   len(slot.queue),
			}
			for _, p := range slot.queue {
				s.Demands = append(s.Demands, p.space)
			}
			r.Slots = append(r.Slots, s)
		}
	}
	return r
}

// runCore gives core c its turn in the current round: up to quantum
// operations shared by the strands of its queue in order.  While an epoch's
// commit walk is in flight and this core has an unconsumed speculator, the
// turn replays the speculated round instead (parround.go).
func (e *engine) runCore(c int) bool {
	if e.nspec > 0 && e.specOf[c] != nil {
		return e.commitCore(c)
	}
	budget := e.quantum
	if e.chaos != nil {
		budget = e.chaos.budget(e.quantum)
	}
	if e.fail != nil {
		budget = e.fail.coreBudget(c, budget)
	}
	return e.runCoreRest(c, budget)
}

// runCoreRest runs the (rest of the) core's turn: strands of its queue in
// order, sharing the given budget.
func (e *engine) runCoreRest(c int, budget int64) bool {
	progressed := false
	for budget > 0 {
		st := e.pop(c)
		if st == nil && e.steal {
			st = e.stealFor(c)
		}
		if st == nil {
			break
		}
		progressed = true
		budget = e.runStrand(st, budget)
	}
	return progressed
}

// runStrand grants st up to budget operations and handles its yield,
// returning the unused budget.  When nothing else is runnable the grant is
// extended with batchRounds whole rounds (see the package comment).
func (e *engine) runStrand(st *strand, budget int64) int64 {
	st.grant = 0
	// Failures disable batching entirely: a locally committed batch would
	// skip the round boundaries failure events fire at.  A no-op plan is
	// still observably equivalent — batching never changes the schedule.
	if e.nrun == 0 && !e.reference && e.fail == nil && (e.chaos == nil || !e.chaos.coin(2)) {
		st.grant = batchRounds
		if e.watchdog > 0 {
			// Cap the batch at the watchdog horizon so a livelocked solo
			// strand returns control to the loop in time to be killed.
			// Observably equivalent: truncation is exactly what an enqueue
			// would do, and runs finishing under budget never hit the cap.
			rem := (e.wdClock-e.clock)/e.quantum + 1
			if rem < 1 {
				rem = 1
			}
			if st.grant > rem {
				st.grant = rem
			}
		}
	}
	e.batchAbort = false
	if !st.started {
		st.started = true
		if !st.spawned {
			st.spawned = true
			//oblivcheck:allow determinism: strand coroutine — lockstep resume/yield handoff, exactly one strand runs at a time, so the schedule is independent of OS interleaving
			go st.main()
		}
	}
	st.resume <- budget
	leftover := e.handleYield(st, <-st.yield)
	if f := e.fail; f != nil {
		used := budget - leftover
		f.rep.TotalOps += used
		if st.recov {
			f.rep.ReexecOps += used
		}
	}
	return leftover
}

// handleYield applies one strand yield to the scheduler state, returning the
// strand's unused budget.  Factored out of runStrand so the parallel-rounds
// commit walk (parround.go) can resume a paused speculator mid-turn and
// handle its next yield identically.
func (e *engine) handleYield(st *strand, msg yieldMsg) int64 {
	switch msg.kind {
	case yBudget:
		// Exhausted its grant; runnable again next round (front of queue
		// preserves run-to-completion order within the core).
		e.requeueFront(st)
		return 0
	case yBlocked:
		e.trackBlocked(st)
		return st.budget // leftover
	case yRequeue:
		// An inline finish admitted work onto this strand's core; the seed
		// schedule runs it first, so the strand rejoins at the back.
		e.enqueue(st)
		return st.budget
	case yDone:
		e.handleDone(st, msg.panicked)
		return st.budget
	}
	return 0
}

// handleDone records a strand failure (first one wins) and finishes it.
func (e *engine) handleDone(st *strand, panicked any) {
	if panicked != nil && e.failErr == nil {
		e.failErr = &RunError{
			Core:        st.core,
			AnchorLevel: st.anchor.Level,
			AnchorIndex: st.anchor.Index,
			Label:       st.label,
			Value:       panicked,
		}
	}
	e.finish(st)
}

// finish handles strand completion: join signalling, space release, queue
// admission, and recycling the strand into the pool.
func (e *engine) finish(st *strand) {
	st.done = true
	e.emit(EvDone, st.core, 0, 0, 0)
	e.live--
	e.load[st.core]--
	if st.reserved != nil {
		st.reserved.used -= st.resSpace
		st.reserved.anchd--
		e.admit(st.reserved)
	}
	if st.jn != nil {
		st.jn.pending--
		if st.jn.pending == 0 && st.jn.waiter != nil {
			w := st.jn.waiter
			st.jn.waiter = nil
			e.enqueue(w)
		}
	}
	st.fn, st.jn = nil, nil
	e.pool = append(e.pool, st)
}

// admit starts queued tasks at slot while capacity allows (paper: multiple
// tasks may be anchored simultaneously provided total space <= C_i).  Under
// chaos the admission pass may be deferred to the next round boundary (the
// loop flushes deferrals through admitNow, so nothing is ever lost) or the
// queue head rotated to the back, perturbing admission order and timing.
func (e *engine) admit(slot *cacheSlot) {
	if e.chaos != nil && len(slot.queue) > 0 {
		if e.chaos.coin(8) {
			e.chaos.deferSlot(slot)
			return
		}
		if len(slot.queue) > 1 && e.chaos.coin(4) {
			head := slot.queue[0]
			copy(slot.queue, slot.queue[1:])
			slot.queue[len(slot.queue)-1] = head
		}
	}
	e.admitNow(slot)
}

// admitNow is the admission pass proper, free of chaos perturbation.
func (e *engine) admitNow(slot *cacheSlot) {
	for len(slot.queue) > 0 {
		p := slot.queue[0]
		if slot.used+p.space > slot.cache.Cap*slot.cache.Block && slot.anchd > 0 {
			return
		}
		slot.queue[0] = pending{}
		slot.queue = slot.queue[1:]
		e.qd--
		e.startAnchored(slot, p)
	}
}

// startAnchored reserves space and creates the strand for task p anchored
// at slot's cache, on the least-loaded core in its shadow.
func (e *engine) startAnchored(slot *cacheSlot, p pending) {
	slot.used += p.space
	slot.anchd++
	slot.placed++
	core := e.leastLoadedCore(slot.cache)
	st := e.newStrand(core, slot.cache, p.jn, p.fn, p.label)
	st.reserved = slot
	st.resSpace = p.space
	e.markRecov(st, p.recov)
	e.emit(EvAnchor, st.core, slot.cache.Level, slot.cache.Index, p.space)
	e.enqueue(st)
}

// placeAnchored either starts task p at slot immediately (if it fits) or
// queues it in Q(λ).
func (e *engine) placeAnchored(slot *cacheSlot, p pending) {
	capWords := slot.cache.Cap * slot.cache.Block
	if len(slot.queue) == 0 && (slot.used+p.space <= capWords || slot.anchd == 0) {
		e.startAnchored(slot, p)
		return
	}
	slot.queue = append(slot.queue, p)
	e.qd++
	e.emit(EvQueue, -1, slot.cache.Level, slot.cache.Index, p.space)
}

// startsNow reports whether placeAnchored(slot, space) would start the task
// immediately rather than queueing it in Q(λ).
func (e *engine) startsNow(slot *cacheSlot, space int64) bool {
	capWords := slot.cache.Cap * slot.cache.Block
	return len(slot.queue) == 0 && (slot.used+space <= capWords || slot.anchd == 0)
}

// ---- fork placement bodies ----
//
// The per-child placement of every fork path lives in these helpers so the
// serial fork loops (ctx.go) and the parallel-rounds deferred-fork replay
// (parround.go) execute literally the same code: a speculating strand records
// a closure over one of these calls instead of running it, and the commit
// walk applies it at the exact serial round against live engine state.  Each
// helper counts its child on the join exactly once.

// forkAt places an anchored child task at the given slot (or queues it in
// Q(λ)).  The slot must be a pure function of immutable machine structure at
// the call site that chose it — state-dependent slot choices belong inside
// the deferred closure, not before it.
func (e *engine) forkAt(slot *cacheSlot, p pending) {
	p.jn.pending++
	e.placeAnchored(slot, p)
}

// forkNested creates a child strand nested in the parent's reservation at
// lam, pinned to core, and enqueues it.
func (e *engine) forkNested(lam *hm.Cache, core int, jn *join, fn func(*Ctx), space int64, lbl string, recov bool) {
	jn.pending++
	st := e.newStrand(core, lam, jn, fn, lbl)
	e.markRecov(st, recov)
	e.emit(EvNested, st.core, lam.Level, lam.Index, space)
	e.enqueue(st)
}

// forkSB is one SpawnSB child: anchored SB placement below lam, or nested at
// lam when the task is too big for the next level down (see SpawnSB).
func (e *engine) forkSB(lam *hm.Cache, jn *join, t Task, recov bool) {
	lbl := t.Label
	if lbl == "" {
		lbl = "sb"
	}
	switch {
	case e.flat:
		// Ablation: ignore every level above 1 — spread over L1s.
		e.forkAt(e.leastLoadedSlot(lam, 1), pending{space: t.Space, fn: t.Fn, jn: jn, label: lbl, recov: recov})
	case t.Space <= e.m.Cfg.Levels[lam.Level-2].Capacity:
		j := e.m.SmallestFit(t.Space)
		e.forkAt(e.leastLoadedSlot(lam, j), pending{space: t.Space, fn: t.Fn, jn: jn, label: lbl, recov: recov})
	default:
		// Too big for the next level down: stays under λ.  The paper queues
		// such tasks in Q(λ); since the forking parent itself holds λ's
		// reservation until its children finish, we run them nested inside
		// the parent's reservation (same shadow, no additional space) to
		// keep the discipline deadlock-free.
		e.forkNested(lam, e.leastLoadedCore(lam), jn, t.Fn, t.Space, lbl, recov)
	}
}

// forkChunk is one PFor chunk strand on its CGC target core.
func (e *engine) forkChunk(target int, jn *join, fn func(*Ctx), words int64, recov bool) {
	jn.pending++
	st := e.newStrand(target, e.m.CacheOf(target, 1), jn, fn, "cgc-chunk")
	e.markRecov(st, recov)
	e.emit(EvChunk, st.core, 1, target, words)
	e.enqueue(st)
}

// leastLoadedCore picks the core with the fewest live strands in the shadow
// of cache.  The scan runs in ascending core index over [CoreLo, CoreHi) and
// only a strictly smaller load displaces the running best, so ties resolve
// to the lowest-indexed core.  This total order is part of the determinism
// contract: placements must not depend on anything but engine state, which
// is what lets the parallel-rounds commit walk (WithParallelRounds)
// reproduce the schedule byte for byte.  Chaos breaks the tie randomly instead — still
// among the least-loaded cores, so the placement rule itself is preserved.
func (e *engine) leastLoadedCore(c *hm.Cache) int {
	// Dead cores are excluded from the scan.  When the whole shadow is dead
	// the scan falls back to CoreLo and newStrand's redirect walks up the
	// hierarchy to a survivor.
	var dead uint64
	if e.fail != nil {
		dead = e.fail.dead
	}
	best, bestLoad := c.CoreLo, int(^uint(0)>>1)
	for i := c.CoreLo; i < c.CoreHi; i++ {
		if dead&(1<<uint(i)) != 0 {
			continue
		}
		if e.load[i] < bestLoad {
			best, bestLoad = i, e.load[i]
		}
	}
	if e.chaos != nil {
		cands := e.chaos.scratch[:0]
		for i := c.CoreLo; i < c.CoreHi; i++ {
			if dead&(1<<uint(i)) != 0 {
				continue
			}
			if e.load[i] == bestLoad {
				cands = append(cands, i)
			}
		}
		e.chaos.scratch = cands
		if len(cands) > 1 {
			best = e.chaos.pick(cands)
		}
	}
	return best
}

// leastLoadedSlot picks the cache slot minimising the load key
// used+len(queue) — reserved words plus tasks waiting in Q(λ), not reserved
// space alone — among the level-j caches under lambda.  Under yields those
// caches in ascending index order and only a strictly smaller key displaces
// the running best, so ties resolve to the lowest-indexed cache, the same
// deterministic total order leastLoadedCore pins.  Under chaos the tie is
// randomized among the slots sharing the minimal key.
func (e *engine) leastLoadedSlot(lambda *hm.Cache, j int) *cacheSlot {
	under := e.m.Under(lambda, j)
	var best *cacheSlot
	for _, c := range under {
		s := e.slotOf(c)
		if best == nil || s.used+int64(len(s.queue)) < best.used+int64(len(best.queue)) {
			best = s
		}
	}
	if e.chaos != nil && best != nil {
		key := best.used + int64(len(best.queue))
		cands := e.chaos.scratch[:0]
		for _, c := range under {
			s := e.slotOf(c)
			if s.used+int64(len(s.queue)) == key {
				cands = append(cands, c.Index)
			}
		}
		e.chaos.scratch = cands
		if len(cands) > 1 {
			best = e.slots[j-1][e.chaos.pick(cands)]
		}
	}
	return best
}

// strand goroutine body: a pooled worker loop.  Each iteration runs one
// assignment; between assignments the goroutine parks on the resume channel
// (keeping its grown stack), and exits when the engine closes the channel.
func (st *strand) main() {
	for {
		budget, ok := <-st.resume
		if !ok {
			return
		}
		st.budget = budget
		st.rounds = st.grant
		var failed any
		func() {
			defer func() {
				if r := recover(); r != nil {
					failed = r
				}
			}()
			st.fn(st.ctx)
		}()
		if st.spec {
			// Finished while speculating: report to the epoch conductor and
			// park at the top of the loop for the next assignment — the
			// commit walk finishes the strand (and surfaces the failure) at
			// its recorded round, without resuming this goroutine.
			st.rep = yieldMsg{kind: yDone, panicked: failed}
			st.eng.prReport <- st
			continue
		}
		st.yield <- yieldMsg{kind: yDone, panicked: failed}
	}
}

// recv blocks for the next grant and adopts its batch extension.  The
// poison grant (killStrand) unwinds the goroutine instead: the panic
// surfaces through the pooled worker loop's recover as a yDone.
func (st *strand) recv() {
	st.budget = <-st.resume
	if st.budget == poisonBudget {
		panic(killedStrand{})
	}
	st.rounds = st.grant
}

// charge consumes n operations of the strand's budget.  The decrement is
// the whole fast path and inlines into LoadU/StoreU/Tick; quantum
// exhaustion goes through chargeSlow.
func (st *strand) charge(n int64) {
	st.budget -= n
	if st.budget <= 0 {
		st.chargeSlow()
	}
}

// chargeSlow crosses round boundaries at quantum exhaustion: either locally
// — batch grant still open and nothing else runnable — or by yielding to
// the engine.  Overshoot is forgiven at every boundary exactly as when the
// engine re-grants: the new budget is a full quantum, not quantum minus the
// overdraft.
func (st *strand) chargeSlow() {
	if st.spec {
		st.specSlow()
		return
	}
	for st.budget <= 0 {
		e := st.eng
		if st.rounds > 0 && !e.batchAbort {
			st.rounds--
			e.clock += e.quantum
			st.budget = e.quantum
			continue
		}
		st.yield <- yieldMsg{kind: yBudget}
		st.recv()
	}
}

// park blocks the strand until the engine resumes it (join complete).
// Unreachable while speculating: every park is preceded by a serialize hook
// (waitJoin entry, fork entries) that pauses a speculator before the state
// reads deciding the park — a spec park here would mean that decision was
// made on stale scheduler state, so fail loudly (the panic surfaces through
// the speculator's yDone report as a *RunError) rather than corrupt the
// schedule.
func (st *strand) park() {
	if st.spec {
		panic("core: strand parked while speculating (missing serialize hook)")
	}
	st.yield <- yieldMsg{kind: yBlocked}
	st.recv()
}

// requeue yields the strand to the back of its core's queue, behind strands
// the inline finish admitted, and blocks until re-granted.  Unreachable
// while speculating for the same reason as park (inlineRejoin's queue check
// follows the inline epilogue serialize hook).
func (st *strand) requeue() {
	if st.spec {
		panic("core: strand requeued while speculating (missing serialize hook)")
	}
	st.yield <- yieldMsg{kind: yRequeue}
	st.recv()
}

// ---- inline leaf spawns ----

// inlineSB runs the single task t of a SpawnSB inline on the parent strand
// when the scheduler would have placed it on the parent's own core as the
// next strand to run, reporting whether it did.  The schedule is provably
// unchanged: with the parent's run queue empty, the seed engine would park
// the parent and immediately grant the child the parent's leftover budget on
// the same core; the child is never stealable (stealing disables this path),
// and on completion the parent either continues directly (queue still
// empty — the seed would pop it right back) or requeues itself behind
// whatever arrived (matching the seed's admit-then-wake order).  All
// engine accounting the child would have caused — live/load, reservation,
// placed counts, trace events, the charge(1) spawn cost — is replicated.
func (c *Ctx) inlineSB(t Task) bool {
	e := c.s.eng
	if e.reference || e.steal || !e.runq[c.core].empty() {
		return false
	}
	lam := c.anchor
	if e.flat {
		return c.inlineAnchored(e.leastLoadedSlot(lam, 1), t)
	}
	if t.Space <= e.m.Cfg.Levels[lam.Level-2].Capacity {
		j := e.m.SmallestFit(t.Space)
		return c.inlineAnchored(e.leastLoadedSlot(lam, j), t)
	}
	// Nested at λ: no reservation, same anchor.
	if e.leastLoadedCore(lam) != c.core {
		return false
	}
	c.st.charge(1)
	c.serialize() // the charge can suspend; a speculative wake must not touch e.live
	e.live++
	e.load[c.core]++
	if e.fail != nil {
		c.st.inline = append(c.st.inline, inlineFrame{})
	}
	e.emit(EvNested, c.core, lam.Level, lam.Index, t.Space)
	t.Fn(c) // child anchor and core equal the parent's
	// A speculator picked mid-inline-task reaches this epilogue without any
	// fork hook in between; the accounting below is engine state.
	c.serialize()
	if e.fail != nil {
		c.st.inline = c.st.inline[:len(c.st.inline)-1]
	}
	e.emit(EvDone, c.core, 0, 0, 0)
	e.live--
	e.load[c.core]--
	c.inlineRejoin()
	return true
}

// inlineAnchored is the anchored half of inlineSB: reserve space at slot,
// run the task under the child anchor, release and admit.
func (c *Ctx) inlineAnchored(slot *cacheSlot, t Task) bool {
	e := c.s.eng
	if !e.startsNow(slot, t.Space) || e.leastLoadedCore(slot.cache) != c.core {
		return false
	}
	c.st.charge(1)
	c.serialize() // as in inlineSB: the charge can suspend mid-machinery
	slot.used += t.Space
	slot.anchd++
	slot.placed++
	e.live++
	e.load[c.core]++
	if e.fail != nil {
		c.st.inline = append(c.st.inline, inlineFrame{slot: slot, space: t.Space})
	}
	e.emit(EvAnchor, c.core, slot.cache.Level, slot.cache.Index, t.Space)
	cc := &Ctx{s: c.s, core: c.core, anchor: slot.cache, st: c.st}
	t.Fn(cc)
	c.serialize() // mid-inline-task speculator: epilogue is engine state
	if e.fail != nil {
		c.st.inline = c.st.inline[:len(c.st.inline)-1]
	}
	e.emit(EvDone, c.core, 0, 0, 0)
	e.live--
	e.load[c.core]--
	slot.used -= t.Space
	slot.anchd--
	e.admit(slot)
	c.inlineRejoin()
	return true
}

// inlineRejoin restores the seed's post-join order: if the inline child's
// completion made anything runnable on this core (admitted tasks), the seed
// engine would run it before re-granting the joining parent, so the parent
// yields to the back of the queue.
func (c *Ctx) inlineRejoin() {
	if !c.s.eng.runq[c.core].empty() {
		c.st.requeue()
	}
}

// PlacedAt returns how many tasks have been anchored at the given cache
// level so far (CGC chunk strands are anchored at level 1 without a
// reservation and are not counted).  Used by the scheduler tests and the
// ablation experiment.
func (s *Session) PlacedAt(level int) int {
	if s.eng == nil {
		return 0
	}
	n := 0
	for _, slot := range s.eng.slots[level-1] {
		n += slot.placed
	}
	return n
}

// stealFor migrates a runnable strand from the most loaded core to the
// idle core c (the §VII "enhanced scheduler" extension, enabled by
// WithStealing).  The victim's newest queued strand is taken — its task
// has not started, so no execution state is lost.  Only the core changes:
// the anchor (and with it any space reservation and the shadow used by the
// strand's own CGC loops) stays put, which keeps the space-bound admission
// discipline deadlock-free — re-anchoring a reservation-holding task
// upward could let its own children queue behind its reservation.
func (e *engine) stealFor(c int) *strand {
	victim, best := -1, 1 // need at least 2 queued to be worth stealing
	for v := range e.runq {
		if e.runq[v].size() > best {
			victim, best = v, e.runq[v].size()
		}
	}
	if e.chaos != nil {
		// Chaos: any core with at least two queued strands is a valid
		// victim; pick one at random instead of the most loaded.
		cands := e.chaos.scratch[:0]
		for v := range e.runq {
			if e.runq[v].size() > 1 {
				cands = append(cands, v)
			}
		}
		e.chaos.scratch = cands
		if len(cands) > 0 {
			victim = e.chaos.pick(cands)
		}
	}
	if victim < 0 {
		return nil
	}
	st := e.runq[victim].buf[len(e.runq[victim].buf)-1]
	if st.started {
		// Mid-execution strands keep their core (their stack references the
		// old ctx); leave the queue untouched.
		return nil
	}
	e.runq[victim].popBack()
	e.nrun--
	if e.runq[victim].empty() {
		e.active &^= 1 << uint(victim)
	}
	e.load[victim]--
	e.load[c]++
	st.core = c
	st.ctx.core = c
	e.steals++
	e.emit(EvSteal, c, st.anchor.Level, st.anchor.Index, 0)
	return st
}

// Steals reports how many strands were migrated by the stealing extension.
func (s *Session) Steals() int64 {
	if s.eng == nil {
		return 0
	}
	return s.eng.steals
}

// withReference disables the engine fast paths — batched solo grants,
// inline leaf spawns, and the active-core scan — so that the schedule is
// the seed engine's, decision for decision.  Pooling stays on (it cannot
// affect the schedule).  Used by the equivalence tests to prove the fast
// path honours the determinism contract on arbitrary workloads.
func withReference() Opt {
	return func(s *Session) {
		if s.eng != nil {
			s.eng.reference = true
		}
	}
}
