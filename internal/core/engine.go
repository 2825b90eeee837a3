package core

import (
	"math"

	"oblivhm/internal/hm"
)

// The simulated executor is a cooperative fork-join engine over the virtual
// cores of an hm.Machine.  Exactly one strand (lightweight task) executes at
// any real instant — each strand is a runtime coroutine, and the engine
// resumes one at a time with a budget of virtual operations until it yields
// back — so the simulation is fully deterministic:
// cores proceed in lockstep rounds of `quantum` operations, realising the
// model's "all cores run at the same rate" assumption.  Virtual parallel
// time is the number of rounds times the quantum.
//
// # Fast path and the determinism contract
//
// The engine freezes its observable behaviour — Steps, every per-cache miss
// counter, PlacedAt, Steals, and the trace event stream — while taking two
// shortcuts on the hot path (DESIGN.md §6):
//
//   - Batched budgets: when a strand is the only runnable strand anywhere
//     (e.nrun == 1, counting itself: a running strand stays at its queue's
//     front), interleaving cannot be observed, so the grant carries an
//     effectively unbounded number of whole rounds.
//     The strand commits round boundaries locally in charge() — bumping the
//     clock and refilling its quantum without a coroutine switch — and the
//     batch is truncated at the next boundary as soon as the strand makes
//     anything else runnable (every such transition funnels through
//     enqueue(), which sets batchAbort).  This is the adaptive quantum: one
//     live strand runs in arbitrarily long grants, concurrent strands fall
//     back to the exact per-round lockstep.
//   - Pooling: strand objects and their coroutines are recycled within a
//     run.  A pooled coroutine stays suspended at the end of its last task
//     between assignments and keeps its grown stack, which matters for the
//     deeply recursive algorithms.  The run stops every coroutine it
//     created when it ends, failed or not (drain).
//
// withReference() turns off the batched grants so tests can cross-check the
// fast path against the per-round lockstep schedule operation for
// operation; pooling cannot affect the schedule.
//
// # Modes
//
// Each scheduling decision is made in one engine method: a core's round
// budget (runCore), a solo strand's batched grant (grant), Q(λ) admission
// (admit), and the tie-break of a placement or steal (leastLoadedCore,
// leastLoadedSlot, stealFor).  The modes perturb only those, through
// nil-safe methods in their own files: chaos.go randomises them,
// failures.go kills and slows cores under them.  A nil *chaos or *failInj
// is the mode off: the deterministic decision, no draw.

type yieldKind int

const (
	yStopped yieldKind = iota // the zero message of a stopped (drained or killed) coroutine: an engine bug
	yBudget                   // budget exhausted, still runnable
	yBlocked                  // parked on a join or a cache queue
	yDone                     // function returned (or panicked)
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
	budget  int64 // operations left in the current grant, set by resume
	rounds  int64 // whole rounds left in the current batch grant, set by resume
	started bool  // this assignment has received its first grant

	// The strand's coroutine (coro.go).  next runs it until its next yield
	// and returns the yielded message; stop unwinds it for good (drain,
	// killStrand).  yieldFn is main's yield, through which it suspends.
	next    func() (yieldMsg, bool)
	stop    func()
	yieldFn func(yieldMsg) bool

	label    string     // task label carried into failure reports
	blockIdx int        // index in the engine's blocked list, -1 if not parked
	jn       *join      // join to signal on completion
	reserved *cacheSlot // space reservation to release on completion
	resSpace int64

	// Failure-recovery state (failures.go).  recov tags a strand whose work
	// is re-execution after a core death: a replacement, or a child forked
	// through a join of a tagged strand.  It feeds the re-executed work
	// fraction.  waitingOn is the join the strand is parked on, so
	// killStrand can orphan it.
	recov     bool
	waitingOn *join
}

// join is a fork-join counter: pending children plus the parked parent.
// recov records that the forking parent is recovery-tagged, so newStrand
// tags every child forked through the join.
type join struct {
	pending int
	waiter  *strand
	recov   bool
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
}

// deque is a per-core run queue: strands join at the back and run at the
// front, where a strand that exhausts its round budget stays for the next
// round; one that blocks or finishes leaves (the seed engine re-sliced the
// queue on every round).
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

	batchAbort bool // an enqueue happened during the outstanding grant
	reference  bool // disable batched solo grants (lockstep-only schedule)
	pool       []*strand
	strands    []*strand // every strand created this run, stopped by drain
	freeJoins  []*join
	failErr    error // first strand failure, as a typed *RunError

	chaos    *chaos    // nil unless WithChaos: deterministic fault injector
	verify   bool      // WithInvariants / WithChaos: per-round invariant checks
	blockedL []*strand // strands currently parked (joins), for forensics
	prevMiss [][]int64 // per-slot miss counters at the last verified round
	scratch  []int     // candidate buffer of the placement and steal scans

	// Failure injection (failures.go).  fail is the seeded failure domain
	// (nil unless WithFailures); dead is the mask of dead cores, zero when
	// failures are off; watchdog is the round budget from WithWatchdog
	// (0 = off).
	fail     *failInj
	dead     uint64
	watchdog int64
}

func newEngine(s *Session, m *hm.Machine) *engine {
	e := &engine{s: s, m: m, quantum: 32, scratch: make([]int, 0, m.Cores())}
	e.slots = make([][]*cacheSlot, len(m.ByLevel))
	for i, level := range m.ByLevel {
		e.slots[i] = make([]*cacheSlot, len(level))
		for j, c := range level {
			e.slots[i][j] = &cacheSlot{cache: c}
		}
	}
	e.runq = make([]deque, m.Cores())
	e.load = make([]int, m.Cores())
	return e
}

func (e *engine) slotOf(c *hm.Cache) *cacheSlot { return e.slots[c.Level-1][c.Index] }

// newJoin takes a join from the free list (joins churn at every fork site;
// waitJoin recycles them once the last child has signalled) and records
// whether the forking parent is recovery-tagged.
func (e *engine) newJoin(parent *strand) *join {
	if n := len(e.freeJoins); n > 0 {
		jn := e.freeJoins[n-1]
		e.freeJoins = e.freeJoins[:n-1]
		jn.recov = parent.recov
		return jn
	}
	return &join{recov: parent.recov}
}

func (e *engine) putJoin(jn *join) {
	jn.pending, jn.waiter = 0, nil
	e.freeJoins = append(e.freeJoins, jn)
}

// newStrand creates (but does not start) a strand pinned to core, reusing a
// pooled strand (object and coroutine) when one is free.  A child forked
// through a join of a recovery-tagged strand is tagged and counted.
func (e *engine) newStrand(core int, anchor *hm.Cache, jn *join, fn func(*Ctx), label string) *strand {
	// Dead cores never receive new work: any placement that lands on one is
	// redirected to the least-loaded survivor under the same anchor.  The
	// anchor (and any reservation) stays put, exactly as under stealing.
	if e.dead&(1<<uint(core)) != 0 {
		core = e.redirectCore(anchor)
	}
	var st *strand
	if n := len(e.pool); n > 0 {
		st = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		st.core, st.anchor, st.fn, st.jn = core, anchor, fn, jn
		st.reserved, st.resSpace = nil, 0
		st.started = false
		st.budget, st.rounds = 0, 0
		st.recov, st.waitingOn = false, nil
		st.ctx.core, st.ctx.anchor = core, anchor
	} else {
		st = &strand{eng: e, core: core, anchor: anchor, fn: fn, jn: jn}
		st.ctx = &Ctx{s: e.s, m: e.m, core: core, anchor: anchor, st: st}
		st.next, st.stop = pull(st.main)
		e.strands = append(e.strands, st)
	}
	st.label = label
	st.blockIdx = -1
	if jn != nil && jn.recov {
		e.fail.tagRecov(st)
	}
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

// pop removes the strand at the front of core's queue.
func (e *engine) pop(core int) *strand {
	st := e.runq[core].popFront()
	if st != nil {
		e.nrun--
	}
	return st
}

// run executes root anchored at the smallest cache fitting space, returning
// a typed error (*RunError, *DeadlockError, *InvariantError) on failure.
func (e *engine) run(space int64, root func(*Ctx)) error {
	e.clock, e.failErr, e.nrun, e.dead = 0, nil, 0, 0
	for i := range e.runq {
		e.runq[i] = deque{}
	}
	e.blockedL = e.blockedL[:0]
	e.chaos.reset()
	if err := e.fail.derive(e.m); err != nil {
		return err
	}
	// The run's cache walk may go to a walker goroutine from here on
	// (hm/walker.go); drain closes the window on every exit.
	e.m.Begin()
	defer e.drain()
	if e.verify {
		e.initInvariants()
	}
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

// drain closes the machine's window, so the cache walk is done and its
// walker stopped, and stops the coroutine of every strand the run created.
// Pooled strands return from main; strands a failed run left parked or
// queued unwind their task stacks first (suspend panics with
// killedStrand).  Nothing outlives the run.
func (e *engine) drain() {
	e.m.End()
	for i, st := range e.strands {
		st.stop()
		e.strands[i] = nil
	}
	e.strands = e.strands[:0]
	clear(e.pool)
	e.pool = e.pool[:0]
}

func (e *engine) loop() error {
	for e.live > 0 || e.qd > 0 {
		// Chaos: admissions held at the previous round boundary fire before
		// the scan, so holding perturbs timing without ever costing liveness
		// (the flush bypasses the hold coin).
		e.chaos.flush(e)
		// Failure events fire at round boundaries, before the scan: no strand
		// is mid-grant, so every live strand is in a queue or parked and the
		// recovery protocol sees a consistent scheduler state.
		recovered := e.fireFailures()
		// Visit the cores in order.  A core with an empty run queue has
		// nothing to run unless stealing is on, and is skipped without a
		// turn (so it draws no chaos budget); each queue is read when its
		// core comes up, so cores that mid-round spawns fill later in the
		// order still run this round.
		progressed := false
		for c := range e.runq {
			if !e.steal && e.runq[c].empty() || e.dead&(1<<uint(c)) != 0 {
				continue
			}
			if e.runCore(c) {
				progressed = true
			}
		}
		e.clock += e.quantum
		if e.failErr != nil {
			return e.failErr
		}
		if e.watchdog > 0 && e.clock/e.quantum >= e.watchdog && (e.live > 0 || e.qd > 0) {
			fr := e.forensics()
			return &FailureError{
				Kind:      "watchdog",
				Clock:     e.clock,
				Detail:    "round budget exhausted with work still live",
				Forensics: &fr,
				Recovery:  e.fail.report(e),
			}
		}
		if !progressed && !recovered && e.chaos.held() == 0 {
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
// operations shared by the strands of its queue in order.  Each strand
// runs where it stands, at the queue's front: one that uses up its budget
// stays there for the next round (run-to-completion order within the
// core), and one that blocks or finishes leaves.  grant and resume inline,
// so a turn makes no engine call on its way to the strand's coroutine
// (make inline-check).
func (e *engine) runCore(c int) bool {
	budget := e.fail.coreBudget(c, e.chaos.budget(e.quantum))
	q := &e.runq[c]
	progressed := false
	for budget > 0 {
		st := q.front()
		if st == nil && e.steal {
			st = e.stealFor(c)
		}
		if st == nil {
			break
		}
		progressed = true
		rounds := e.grant()
		e.batchAbort = false
		st.started = true
		msg := st.resume(budget, rounds)
		leftover := st.budget
		switch msg.kind {
		case yBudget:
			leftover = 0 // stays at the front for the next round
		case yBlocked:
			e.pop(c)
			e.trackBlocked(st)
		case yDone:
			e.pop(c)
			// The first strand failure wins.
			if msg.panicked != nil && e.failErr == nil {
				e.failErr = &RunError{
					Core:        st.core,
					AnchorLevel: st.anchor.Level,
					AnchorIndex: st.anchor.Index,
					Label:       st.label,
					Value:       msg.panicked,
				}
			}
			e.finish(st)
		default:
			panic("core: resumed a stopped strand")
		}
		e.fail.account(st, budget-leftover)
		budget = leftover
	}
	return progressed
}

// grant is the batched-grant decision of a turn: the whole rounds it adds
// to the strand's budget.  A strand that shares the machine with another
// runnable strand (nrun counts the strand itself, at its queue's front)
// gets none, which the test here decides without a call, so grant inlines
// into runCore (make inline-check); a solo strand's grant is soloGrant's.
func (e *engine) grant() int64 {
	if e.nrun > 1 {
		return 0
	}
	return e.soloGrant()
}

// soloGrant is the grant of a strand that is the only runnable one:
// batchRounds whole rounds (see the package comment), unless a mode keeps
// the schedule lockstep.
func (e *engine) soloGrant() int64 {
	// Failures disable batching entirely: a locally committed batch would
	// skip the round boundaries failure events fire at.  A no-op plan is
	// still observably equivalent — batching never changes the schedule.
	if e.reference || e.fail != nil || e.chaos.noBatch() {
		return 0
	}
	// Cap the batch at the watchdog horizon so a livelocked solo strand
	// returns control to the loop in time to be killed.  Observably
	// equivalent: truncation is exactly what an enqueue would do, and runs
	// finishing under budget never hit the cap.  Counted in rounds, so no
	// budget overflows the clock arithmetic.
	if rem := e.watchdog - e.clock/e.quantum; e.watchdog > 0 && rem < batchRounds {
		return max(rem+1, 1)
	}
	return batchRounds
}

// finish handles strand completion: join signalling, space release, queue
// admission, and recycling the strand into the pool.
func (e *engine) finish(st *strand) {
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
// chaos the admission pass may be held to the next round boundary (the loop
// flushes held passes through admitNow, so nothing is ever lost) or the
// queue head rotated to the back, perturbing admission order and timing.
func (e *engine) admit(slot *cacheSlot) {
	if !e.chaos.hold(slot) {
		e.admitNow(slot)
	}
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
	e.emit(EvAnchor, st.core, slot.cache.Level, slot.cache.Index, p.space)
	e.enqueue(st)
}

// ---- fork placement bodies ----
//
// The per-child placement of every fork path in ctx.go.  Each helper counts
// its child on the join exactly once.

// forkAt places an anchored child task at the given slot: it starts at once
// if it fits, or queues in Q(λ).
func (e *engine) forkAt(slot *cacheSlot, p pending) {
	p.jn.pending++
	if len(slot.queue) == 0 && (slot.used+p.space <= slot.cache.Cap*slot.cache.Block || slot.anchd == 0) {
		e.startAnchored(slot, p)
		return
	}
	slot.queue = append(slot.queue, p)
	e.qd++
	e.emit(EvQueue, -1, slot.cache.Level, slot.cache.Index, p.space)
}

// forkStrand creates a child strand on core under anchor without a
// reservation of its own and enqueues it, recording it as kind: a CGC
// chunk on its core's L1 (EvChunk) or a task nested in its parent's
// reservation (EvNested).
func (e *engine) forkStrand(kind EventKind, anchor *hm.Cache, core int, jn *join, fn func(*Ctx), space int64, lbl string) {
	jn.pending++
	st := e.newStrand(core, anchor, jn, fn, lbl)
	e.emit(kind, st.core, anchor.Level, anchor.Index, space)
	e.enqueue(st)
}

// forkSB is one SpawnSB child: anchored SB placement below lam, or nested at
// lam when the task is too big for the next level down (see SpawnSB).
func (e *engine) forkSB(lam *hm.Cache, jn *join, t Task) {
	lbl := t.Label
	if lbl == "" {
		lbl = "sb"
	}
	p := pending{space: t.Space, fn: t.Fn, jn: jn, label: lbl}
	switch {
	case e.flat:
		// Ablation: ignore every level above 1 — spread over L1s.
		e.forkAt(e.leastLoadedSlot(lam, 1), p)
	case t.Space <= e.m.Cfg.Levels[lam.Level-2].Capacity:
		e.forkAt(e.leastLoadedSlot(lam, e.m.SmallestFit(t.Space)), p)
	default:
		// Too big for the next level down: stays under λ.  The paper queues
		// such tasks in Q(λ); since the forking parent itself holds λ's
		// reservation until its children finish, we run them nested inside
		// the parent's reservation (same shadow, no additional space) to
		// keep the discipline deadlock-free.
		e.forkStrand(EvNested, lam, e.leastLoadedCore(lam), jn, t.Fn, t.Space, lbl)
	}
}

// idlest returns the live cores with the fewest live strands in the shadow
// of c, in ascending core order, or nothing when the whole shadow is dead.
// It is the one scan behind every core placement; the result is the
// engine's scratch buffer, valid until the next scan.
func (e *engine) idlest(c *hm.Cache) []int {
	cands, least, dead := e.scratch[:0], math.MaxInt, e.dead
	for i := c.CoreLo; i < c.CoreHi; i++ {
		switch l := e.load[i]; {
		case dead&(1<<uint(i)) != 0:
		case l < least:
			cands, least = append(cands[:0], i), l
		case l == least:
			cands = append(cands, i)
		}
	}
	e.scratch = cands
	return cands
}

// leastLoadedCore picks the core with the fewest live strands in the shadow
// of cache, skipping dead cores.  Ties resolve to the lowest-indexed core.
// This total order is part of the determinism contract: placements depend
// on nothing but engine state.  Chaos breaks the tie randomly instead —
// still among the least-loaded cores, so the placement rule itself is
// preserved.  When the whole shadow is dead the pick falls back to CoreLo
// and newStrand's redirect walks up the hierarchy to a survivor.
func (e *engine) leastLoadedCore(c *hm.Cache) int {
	if cands := e.idlest(c); len(cands) > 0 {
		return e.chaos.pick(cands)
	}
	return c.CoreLo
}

// leastLoadedSlot picks the cache slot minimising the load key
// used+len(queue) — reserved words plus tasks waiting in Q(λ), not reserved
// space alone — among the level-j caches under lambda.  Under yields those
// caches in ascending index order, so ties resolve to the lowest-indexed
// cache, the same deterministic total order leastLoadedCore pins.  Under
// chaos the tie is randomized among the slots sharing the minimal key.
func (e *engine) leastLoadedSlot(lambda *hm.Cache, j int) *cacheSlot {
	cands, least := e.scratch[:0], int64(math.MaxInt64)
	for _, c := range e.m.Under(lambda, j) {
		s := e.slotOf(c)
		switch k := s.used + int64(len(s.queue)); {
		case k < least:
			cands, least = append(cands[:0], c.Index), k
		case k == least:
			cands = append(cands, c.Index)
		}
	}
	e.scratch = cands
	return e.slots[j-1][e.chaos.pick(cands)]
}

// resume grants st budget operations plus rounds whole batch rounds and runs
// its coroutine until the strand yields, returning what it yielded; a
// stopped coroutine returns the zero message, yStopped, which runCore
// refuses.  A turn (runCore) is the one engine-side entry into a running
// strand; drain and killStrand only stop coroutines.  It inlines, so a turn
// calls nothing of the engine's on its way to the coroutine (make
// inline-check).
func (st *strand) resume(budget, rounds int64) yieldMsg {
	st.budget, st.rounds = budget, rounds
	msg, _ := st.next()
	return msg
}

// main is the strand's coroutine body: a pooled worker loop.  Each iteration
// runs one assignment and yields yDone; the next resume after the engine
// recycles the strand starts the following assignment on the same (grown)
// stack.  A false yield means the coroutine was stopped: main returns.
func (st *strand) main(yield func(yieldMsg) bool) {
	st.yieldFn = yield
	for {
		var failed any
		func() {
			defer func() {
				if r := recover(); r != nil {
					failed = r
				}
			}()
			st.fn(st.ctx)
		}()
		if !yield(yieldMsg{kind: yDone, panicked: failed}) {
			return
		}
	}
}

// suspend yields msg to the engine and returns once resume has set the next
// grant.  When the coroutine is stopped instead (drain, or killStrand for a
// strand of a dead core) it panics with killedStrand, which unwinds the task
// into main's recover, after which main returns.
func (st *strand) suspend(msg yieldMsg) {
	if !st.yieldFn(msg) {
		panic(killedStrand{})
	}
}

// charge consumes n operations of the strand's budget.  The decrement is
// the whole fast path and inlines into LoadU, StoreU and Tick (make
// inline-check); quantum exhaustion goes through chargeSlow.
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
	for st.budget <= 0 {
		e := st.eng
		if st.rounds > 0 && !e.batchAbort {
			st.rounds--
			e.clock += e.quantum
			st.budget = e.quantum
			continue
		}
		st.suspend(yieldMsg{kind: yBudget})
	}
}

// park blocks the strand until the engine resumes it (join complete).
func (st *strand) park() { st.suspend(yieldMsg{kind: yBlocked}) }

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
// WithStealing) and returns it, at the front of c's empty queue.  The
// victim's newest queued strand is taken — its task has not started, so no
// execution state is lost.  Only the core changes: the anchor (and with it
// any space reservation and the shadow used by the strand's own CGC loops)
// stays put, which keeps the space-bound admission discipline
// deadlock-free — re-anchoring a reservation-holding task upward could let
// its own children queue behind its reservation.
func (e *engine) stealFor(c int) *strand {
	// Any core with at least two queued strands is a valid victim (chaos
	// picks one of them at random); the most loaded one wins otherwise.
	victim, most, cands := -1, 1, e.scratch[:0]
	for v := range e.runq {
		if n := e.runq[v].size(); n > 1 {
			cands = append(cands, v)
			if n > most {
				victim, most = v, n
			}
		}
	}
	e.scratch = cands
	if victim = e.chaos.victim(cands, victim); victim < 0 {
		return nil
	}
	st := e.runq[victim].buf[len(e.runq[victim].buf)-1]
	if st.started {
		// Mid-execution strands keep their core (their stack references the
		// old ctx); leave the queue untouched.
		return nil
	}
	e.runq[victim].popBack()
	e.runq[c].pushBack(st)
	e.steals++
	e.move(st, c, EvSteal)
	return st
}

// move retargets an unstarted strand to core c, recording it as kind.  Only
// the core changes: the anchor and any reservation stay put.  Stealing and
// the migration off a dead core share it.
func (e *engine) move(st *strand, c int, kind EventKind) {
	e.load[st.core]--
	e.load[c]++
	st.core, st.ctx.core = c, c
	e.emit(kind, c, st.anchor.Level, st.anchor.Index, 0)
}

// Steals reports how many strands were migrated by the stealing extension.
func (s *Session) Steals() int64 {
	if s.eng == nil {
		return 0
	}
	return s.eng.steals
}

// withReference turns off batched solo grants, so every strand yields at
// every round boundary: the seed engine's lockstep schedule, decision for
// decision.  Pooling stays on (it cannot affect the schedule).  Used by the
// equivalence tests to prove the batched fast path honours the determinism
// contract on arbitrary workloads.
func withReference() Opt {
	return func(s *Session) { s.eng.reference = true }
}
