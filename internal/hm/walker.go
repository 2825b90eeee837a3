package hm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The walker moves a run's cache walk off the engine's goroutine.  The
// engine charges every access one virtual step, hit or miss, and memory is
// authoritative, so no loaded value and no scheduling decision reads the
// caches: they only count.  Between Begin and End, the engine's accesses
// keep everything a value or an error depends on (the heap check and the
// memory word) and append one record per access to a batch.  apply alone
// consumes records: in issue order, on a walker goroutine when a CPU is
// free and on the engine's otherwise, so every counter and the trace
// digest are the ones a machine outside a window produces (DESIGN.md §8).

const (
	// batchWords is the number of records in a batch: 64 KiB.
	batchWords = 8192
	// batchSpare is the number of batches a walker adds to the one being
	// filled, so the engine fills one while the walker applies another.
	batchSpare = 2

	// A record packs an access into one word: the address above recShift,
	// the core (fewer than 64, as Validate requires) in bits 1-6, and the
	// write bit in bit 0.
	recShift = 7
	coreMask = 1<<(recShift-1) - 1
)

type batch [batchWords]uint64

// batchPool lends batches to open windows; End returns them, so an idle
// machine holds none.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// windows counts the machines inside a window and walkers the walker
// goroutines running, process-wide, for the CPU rule of claimCPU.
var windows, walkers atomic.Int32

// walker is a running walker goroutine: full carries batches to apply, in
// issue order, free carries applied ones back, and done is closed once
// full is closed and drained.
type walker struct {
	full chan []uint64
	free chan *batch
	done chan struct{}
}

// record packs one access into a record.
func record(core int, a Addr, write bool) uint64 {
	r := uint64(a)<<recShift | uint64(core)<<1
	if write {
		r |= 1
	}
	return r
}

// Begin opens a window: from now until End, every access appends a
// record to a batch instead of walking the caches.  Begin inside a window
// does nothing.
func (m *Machine) Begin() {
	if m.rec != nil {
		return
	}
	windows.Add(1)
	m.rec, m.n = batchPool.Get().(*batch)[:], 0
}

// Sync applies the records still pending, waits for the walker and stops
// it; the window goes on recording.  Outside a window it does nothing.
// Every cache counter and the trace digest are current afterwards.
func (m *Machine) Sync() {
	if m.rec == nil {
		return
	}
	if w := m.wk; w != nil {
		w.full <- m.rec[:m.n]
		close(w.full)
		<-w.done
		m.rec = (<-w.free)[:]
		for len(w.free) > 0 {
			batchPool.Put(<-w.free)
		}
		m.wk = nil
		walkers.Add(-1)
	} else {
		m.apply(m.rec[:m.n])
	}
	m.n = 0
}

// End closes the window: it syncs and returns the batch to the pool.
// Outside a window it does nothing.
func (m *Machine) End() {
	if m.rec == nil {
		return
	}
	m.Sync()
	batchPool.Put((*batch)(m.rec))
	m.rec = nil
	windows.Add(-1)
}

// issue takes the record of an access Load or Store has checked: inside a
// window it appends it to the batch, handing a full batch off first, and
// outside one it applies it at once.  The fast path fills a batch up to
// its last slot and leaves the hand-off to the next issue or to Sync.
func (m *Machine) issue(r uint64) {
	if m.rec == nil {
		m.apply([]uint64{r})
		return
	}
	if m.n == len(m.rec) {
		m.handOff()
	}
	m.rec[m.n] = r
	m.n++
}

// handOff passes a full batch on.  With no walker running it starts one
// if a CPU is free; otherwise it applies the batch itself and the window
// goes on recording into the same batch, so a later full batch may still
// start a walker.
func (m *Machine) handOff() {
	if m.wk == nil {
		if !claimCPU() {
			m.apply(m.rec)
			m.n = 0
			return
		}
		// Both channels hold every batch of the window, so no send on
		// either ever blocks; only the engine's receive of an empty batch
		// waits, when the walker is behind.
		w := &walker{
			full: make(chan []uint64, 1+batchSpare),
			free: make(chan *batch, 1+batchSpare),
			done: make(chan struct{}),
		}
		for i := 0; i < batchSpare; i++ {
			w.free <- batchPool.Get().(*batch)
		}
		m.wk = w
		//oblivcheck:allow determinism: the walker applies records in issue order, so no count depends on goroutine interleaving; Sync joins it before any read
		go m.walk(w)
	}
	m.wk.full <- m.rec
	m.rec, m.n = (<-m.wk.free)[:], 0
}

// claimCPU counts a new walker in if a CPU is free for it: if the
// machines inside a window plus the running walkers are fewer than
// GOMAXPROCS.
func claimCPU() bool {
	for {
		n := walkers.Load()
		if int(windows.Load()+n) >= runtime.GOMAXPROCS(0) {
			return false
		}
		if walkers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// walk is the walker goroutine's body.
func (m *Machine) walk(w *walker) {
	for recs := range w.full {
		m.apply(recs)
		w.free <- (*batch)(recs[:batchWords])
	}
	close(w.done)
}

// apply consumes records in issue order, the only code that does: it
// folds them into the trace digest while a capture runs, then walks each
// through the caches, the L1 hit inline and a miss up the path.
func (m *Machine) apply(recs []uint64) {
	if t := m.trace; t != nil {
		for _, r := range recs {
			t.note(r)
		}
	}
	l1, shift := m.l1, m.shift[0]
	for _, r := range recs {
		core, a, write := int(r>>1&coreMask), Addr(r>>recShift), r&1 != 0
		c1 := l1[core]
		b := int64(a) >> shift
		s := c1.lookup(b)
		if s == nilSlot {
			m.miss(core, a, write)
			continue
		}
		c1.Stats.Hits++
		c1.touch(b, s)
		if write {
			m.write(core, a, &c1.slots[s])
		}
	}
}
