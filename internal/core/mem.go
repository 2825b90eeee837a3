package core

import (
	"sync"
	"sync/atomic"
)

// nativeMem is the word-addressed backing store of a native session.  It is
// a grow-only page table: pages never move once allocated, and the page
// directory is swapped atomically on growth, so concurrent readers in
// worker goroutines are safe while a task allocates mid-run.
const (
	pageShift = 16
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]uint64

type nativeMem struct {
	mu   sync.Mutex
	dir  atomic.Pointer[[]*page]
	heap int64
}

func newNativeMem() *nativeMem {
	nm := &nativeMem{}
	d := make([]*page, 0)
	nm.dir.Store(&d)
	return nm
}

func (nm *nativeMem) alloc(n int64) int64 {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	a := nm.heap
	nm.heap += n
	need := int((nm.heap + pageWords - 1) >> pageShift)
	cur := *nm.dir.Load()
	if need > len(cur) {
		grown := make([]*page, need)
		copy(grown, cur)
		for i := len(cur); i < need; i++ {
			grown[i] = new(page)
		}
		nm.dir.Store(&grown)
	}
	return a
}

func (nm *nativeMem) load(a Addr) uint64 {
	d := *nm.dir.Load()
	return d[a>>pageShift][a&pageMask]
}

func (nm *nativeMem) store(a Addr, v uint64) {
	d := *nm.dir.Load()
	d[a>>pageShift][a&pageMask] = v
}
