package core

import (
	"math"
	"sync"
	"sync/atomic"

	"oblivhm/internal/hm"
)

// Ctx is the multicore-oblivious execution context handed to algorithm
// code.  It exposes exactly two things: word-granular memory access, and the
// paper's three scheduler hints (PFor = CGC, SpawnSB = SB, SpawnCGCSB =
// CGC⇒SB).  No machine parameter is reachable through it, which is the
// obliviousness boundary of the whole system.
type Ctx struct {
	s      *Session
	m      *hm.Machine // nil in native mode
	core   int
	anchor *hm.Cache // nil in native mode
	st     *strand   // nil in native mode
}

// ---- memory access ----

// LoadU loads the word at address a, charging one virtual operation.  A
// simulated access is this one call: the budget decrement (charge) and the
// machine's fast path (TryLoad) inline into it, and only a round boundary
// (chargeSlow) or an access the fast path refuses (Machine.Load) calls
// further (make inline-check).
func (c *Ctx) LoadU(a Addr) uint64 {
	if c.st == nil {
		return c.s.nmem.load(a)
	}
	c.st.charge(1)
	if v, ok := c.m.TryLoad(c.core, a); ok {
		return v
	}
	return c.m.Load(c.core, a)
}

// StoreU stores v at address a, charging one virtual operation, as LoadU
// loads.
func (c *Ctx) StoreU(a Addr, v uint64) {
	if c.st == nil {
		c.s.nmem.store(a, v)
		return
	}
	c.st.charge(1)
	if !c.m.TryStore(c.core, a, v) {
		c.m.Store(c.core, a, v)
	}
}

// LoadF / StoreF are float64 views.
func (c *Ctx) LoadF(a Addr) float64     { return math.Float64frombits(c.LoadU(a)) }
func (c *Ctx) StoreF(a Addr, v float64) { c.StoreU(a, math.Float64bits(v)) }

// LoadI / StoreI are int64 views.
func (c *Ctx) LoadI(a Addr) int64     { return int64(c.LoadU(a)) }
func (c *Ctx) StoreI(a Addr, v int64) { c.StoreU(a, uint64(v)) }

// Tick charges n virtual operations of pure computation (no memory access).
func (c *Ctx) Tick(n int64) {
	if c.st != nil {
		c.st.charge(n)
	}
}

// ---- CGC: coarse-grained contiguous scheduling ----

// PFor is a parallel for loop over [0, n) scheduled with the CGC hint: the
// index range is decomposed into contiguous segments of near-equal length,
// segment boundaries respect level-1 block boundaries (each segment scans at
// least B_1 words, idling cores if necessary), and the j-th segment runs on
// the j-th core under the shadow of the calling task's anchor cache.
//
// elemWords is the size of one loop element in words, so the scheduler can
// convert the block constraint into index units; body receives a contiguous
// subrange [lo, hi).
func (c *Ctx) PFor(n, elemWords int, body func(cc *Ctx, lo, hi int)) {
	if n <= 0 {
		return
	}
	if elemWords <= 0 {
		elemWords = 1
	}
	if c.st == nil {
		k := min(c.s.workers, n)
		cs := (n + k - 1) / k
		c.fork((n+cs-1)/cs, func(cc *Ctx, j int) { body(cc, j*cs, min((j+1)*cs, n)) })
		return
	}
	e := c.s.eng
	lo, hi := c.anchor.CoreLo, c.anchor.CoreHi
	k := hi - lo
	b1 := c.s.mach.Cfg.Levels[0].Block
	grain := int(b1) / elemWords
	if grain < 1 {
		grain = 1
	}
	nchunks := (n + grain - 1) / grain
	if nchunks > k {
		nchunks = k
	}
	if nchunks <= 1 {
		body(c, 0, n)
		return
	}
	// Chunk size rounded up to a grain multiple so segment boundaries land
	// on B_1 block boundaries (arrays are B_1-aligned).
	cs := (n + nchunks - 1) / nchunks
	cs = (cs + grain - 1) / grain * grain
	jn := e.newJoin(c.st)
	myChunk := -1
	for j := 0; j*cs < n; j++ {
		clo, chi := j*cs, (j+1)*cs
		if chi > n {
			chi = n
		}
		target := lo + j
		if target == c.core {
			myChunk = j
			continue
		}
		c.st.charge(1)
		fn := func(cc *Ctx) { body(cc, clo, chi) }
		e.forkStrand(EvChunk, e.m.CacheOf(target, 1), target, jn, fn, int64(chi-clo)*int64(elemWords), "cgc-chunk")
	}
	if myChunk >= 0 {
		clo, chi := myChunk*cs, (myChunk+1)*cs
		if chi > n {
			chi = n
		}
		body(c, clo, chi)
	}
	c.waitJoin(jn)
}

// ---- SB: space-bound scheduling ----

// Task is a forked task with a declared space bound (the paper's s(τ), an
// upper bound in words on the task's working space).  Label is optional and
// only surfaces in failure diagnostics (RunError, deadlock forensics).
type Task struct {
	Space int64
	Fn    func(*Ctx)
	Label string
}

// SpawnSB forks the given tasks under the SB hint and waits for all of them.
// Each task τ' forked by a task anchored at a level-i cache λ is anchored at
// the least-loaded cache at the smallest level j <= i-1 with s(τ') <= C_j
// under the shadow of λ; tasks too big for level i-1 stay at λ.  A cache
// admits concurrently anchored tasks while their total space fits, queueing
// the rest in Q(λ).
func (c *Ctx) SpawnSB(tasks ...Task) {
	if len(tasks) == 0 {
		return
	}
	if c.st == nil {
		// Copy the functions out: a closure over tasks would make every
		// simulated call heap-allocate its variadic slice.
		fns := make([]func(*Ctx), len(tasks))
		for i, t := range tasks {
			fns[i] = t.Fn
		}
		c.fork(len(fns), func(cc *Ctx, i int) { fns[i](cc) })
		return
	}
	e := c.s.eng
	lam := c.anchor
	i := lam.Level
	if i == 1 || lam.CoreHi-lam.CoreLo == 1 {
		for _, t := range tasks {
			t.Fn(c)
		}
		return
	}
	jn := e.newJoin(c.st)
	for _, t := range tasks {
		c.st.charge(1)
		e.forkSB(lam, jn, t)
	}
	c.waitJoin(jn)
}

// ---- CGC⇒SB scheduling ----

// SpawnCGCSB forks m uniform subtasks, each with the same space bound, and
// waits for all of them.  Per the paper: with the parent anchored at λ, the
// scheduler finds the smallest level i with C_i >= space and the smallest
// level j with at most m level-j caches under the shadow of λ, and
// distributes the subtasks evenly and contiguously across the level-t caches
// under λ for t = max(i, j).
func (c *Ctx) SpawnCGCSB(space int64, m int, task func(cc *Ctx, idx int)) {
	if m <= 0 {
		return
	}
	if c.st == nil {
		c.fork(m, task)
		return
	}
	e := c.s.eng
	lam := c.anchor
	if lam.CoreHi-lam.CoreLo == 1 || m == 1 {
		for idx := 0; idx < m; idx++ {
			task(c, idx)
		}
		return
	}
	t, i := 1, 1
	if !e.flat {
		i = min(e.m.SmallestFit(space), lam.Level)
		// λ alone is one level-λ cache, so the scan stops by lam.Level.
		j := 1
		for len(e.m.Under(lam, j)) > m {
			j++
		}
		t = max(i, j)
	}
	// Small fan-out (fewer subtasks than level-i caches): the paper's
	// even-contiguous distribution at level t would pin recursive binary
	// forks at λ forever.  This is the "generate a sufficient number of
	// tasks through recursive forking" case (§III-C): place the few subtasks
	// SB-style at the least-loaded level-i caches so the recursion descends
	// the hierarchy and later forks find enough parallelism.  The flat
	// scheduler never gets here, since it forces t = i = 1.
	small := t > i && m < len(e.m.Under(lam, i)) && i < lam.Level
	targets := e.m.Under(lam, t)
	jn := e.newJoin(c.st)
	for idx := 0; idx < m; idx++ {
		c.st.charge(1)
		id := idx
		fn := func(cc *Ctx) { task(cc, id) }
		switch {
		case small:
			e.forkAt(e.leastLoadedSlot(lam, i), pending{space: space, jn: jn, fn: fn, label: "cgc-sb"})
		case t == lam.Level:
			// All subtasks stay at λ: round-robin its cores, nested in the
			// parent's reservation (see SpawnSB).
			core := lam.CoreLo + idx%(lam.CoreHi-lam.CoreLo)
			e.forkStrand(EvNested, lam, core, jn, fn, space, "cgc-sb")
		default:
			e.forkAt(e.slotOf(targets[idx*len(targets)/m]), pending{space: space, jn: jn, fn: fn, label: "cgc-sb"})
		}
	}
	c.waitJoin(jn)
}

// fork runs child(cc, i) for every i in [0, n) as the children of one
// native fork, and returns only once every child has returned.  Each child
// but the last starts on a goroutine of its own while one of the session's
// tokens is free; the others run inline on the forking goroutine.  A panic
// does not cut the join short: the deferred join waits for the goroutine
// children first, then re-raises the first panic any child raised.
func (c *Ctx) fork(n int, child func(cc *Ctx, i int)) {
	var j struct {
		wg    sync.WaitGroup
		first atomic.Pointer[RunError]
	}
	defer func() {
		if r := recover(); r != nil {
			j.first.CompareAndSwap(nil, nativeError(r))
		}
		j.wg.Wait()
		if err := j.first.Load(); err != nil {
			panic(err)
		}
	}()
	for i := 0; i < n-1; i++ {
		select {
		case c.s.tokens <- struct{}{}:
		default:
			child(c, i)
			continue
		}
		j.wg.Add(1)
		//oblivcheck:allow determinism: native-mode executor — real parallelism is the point; the deferred join waits for every child before it re-raises a panic
		go func() {
			defer func() {
				if r := recover(); r != nil {
					j.first.CompareAndSwap(nil, nativeError(r))
				}
				<-c.s.tokens
				j.wg.Done()
			}()
			child(&Ctx{s: c.s}, i)
		}()
	}
	child(c, n-1)
}

// nativeError is a native child's panic as a *RunError: one raised by a
// fork further down as it is, any other value wrapped once.
func nativeError(r any) *RunError {
	if err, ok := r.(*RunError); ok {
		return err
	}
	return &RunError{Core: -1, Label: "native", Value: r}
}

// waitJoin parks the calling strand until all children of jn have finished.
func (c *Ctx) waitJoin(jn *join) {
	if jn.pending > 0 {
		jn.waiter = c.st
		// Record the join for failure recovery: a kill of this strand while
		// parked must orphan the join (killStrand), or its last child's
		// completion would resurrect the dead strand.
		c.st.waitingOn = jn
		c.st.park()
		c.st.waitingOn = nil
	}
	c.s.eng.putJoin(jn)
}

// Session returns the owning session (for allocation from inside a task).
func (c *Ctx) Session() *Session { return c.s }
