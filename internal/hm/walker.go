package hm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The walker moves a run's cache walk off the engine's goroutine.  The
// engine charges every access one virtual step, hit or miss, and memory is
// authoritative, so no loaded value and no scheduling decision reads the
// caches: they only count.  Between Begin and Sync, Load and Store keep
// everything a value or an error depends on (the heap check, the trace
// note, Accesses and the memory word) and append one record per access to
// a batch.  Full batches are applied in issue order by apply, on a walker
// goroutine when a CPU is free, so every counter is the one the direct
// walk produces (DESIGN.md §8).

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

// batchPool lends batches to open windows; Sync returns them, so an idle
// machine holds none.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// windows counts the machines inside a window and walkers the walker
// goroutines running, process-wide, for the CPU rule of handOff.
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

// Begin opens a window.  If a CPU is free for a walker, Load and Store
// record their accesses from now until Sync instead of walking the
// caches; otherwise the machine walks directly, as outside a window.
// Begin inside a window does nothing.
func (m *Machine) Begin() {
	if m.open {
		return
	}
	m.open = true
	windows.Add(1)
	if cpuFree(walkers.Load()) {
		m.cur, m.n = batchPool.Get().(*batch), 0
	}
}

// Sync closes the window: it applies the records still pending, waits for
// the walker and stops it, and returns the batches to the pool.  Outside a
// window it does nothing.  Every cache counter is current afterwards.
func (m *Machine) Sync() {
	if !m.open {
		return
	}
	if w := m.wk; w != nil {
		w.full <- m.cur[:m.n]
		close(w.full)
		<-w.done
		for len(w.free) > 0 {
			batchPool.Put(<-w.free)
		}
		m.wk = nil
		walkers.Add(-1)
	} else if m.cur != nil {
		m.apply(m.cur[:m.n])
		batchPool.Put(m.cur)
	}
	m.cur, m.n = nil, 0
	m.open = false
	windows.Add(-1)
}

// push appends a record to the current batch, handing the batch off when
// it is full.
func (m *Machine) push(r uint64) {
	m.cur[m.n] = r
	if m.n++; m.n == batchWords {
		m.handOff()
	}
}

// handOff passes a full batch on.  At the window's first full batch it
// starts a walker if a CPU is still free.  Otherwise it applies the batch
// itself and the machine walks directly until Sync, which costs the
// direct walk one branch per access.
func (m *Machine) handOff() {
	if m.wk == nil {
		if !claimCPU() {
			m.apply(m.cur[:])
			batchPool.Put(m.cur)
			m.cur, m.n = nil, 0
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
	m.wk.full <- m.cur[:]
	m.cur, m.n = <-m.wk.free, 0
}

// cpuFree reports whether a CPU is free for one more walker: whether the
// machines inside a window plus the given number of running walkers are
// fewer than GOMAXPROCS.
func cpuFree(running int32) bool {
	return int(windows.Load()+running) < runtime.GOMAXPROCS(0)
}

// claimCPU counts a new walker in if a CPU is free for it.
func claimCPU() bool {
	for {
		n := walkers.Load()
		if !cpuFree(n) {
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

// apply runs records through the cache walk in order: the L1 hit, or the
// walk up the path on a miss, exactly as Load and Store do outside a
// window (they keep their copy of the L1 hit inline, so the direct walk
// pays no call for it).
func (m *Machine) apply(recs []uint64) {
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
