package hm

import (
	"fmt"
	"math/bits"
)

// Addr is a word address in the machine's shared memory.
type Addr int64

// Machine is a concrete HM machine instance: the cache tree, the cores, the
// shared memory contents, and the bump allocator.  Its methods are called
// from one goroutine at a time (the core engine serialises simulated cores),
// so Machine does no locking.
//
// Every access becomes a record, and apply alone walks records through the
// caches (walker.go).  Inside a Begin…End window (core opens one per run)
// the records go to a batch, and full batches are applied on a walker
// goroutine when a CPU is free, on the caller's otherwise, so TryLoad and
// TryStore, the fast path core takes first, and Load and Store return
// before the caches have seen the access.  Outside a window Load and
// Store apply their record at once.  Stats, ResetStats, FlushCaches,
// InjectCacheFault, StartTrace and EndTrace call Sync first, so their
// counts are exact, and the window goes on recording; a direct read of a
// cache's Stats is current outside a window and after Stats or Sync.
type Machine struct {
	Cfg Config

	// ByLevel[i-1] holds the q_i caches of level i, left to right, so that
	// cache j at level i covers cores [j*p'_i, (j+1)*p'_i).
	ByLevel [][]*Cache

	// path[c][i-1] is the level-i cache above core c, and l1[c] is
	// path[c][0], kept flat for apply's L1 hit.
	path [][]*Cache
	l1   []*Cache

	// shift[i-1] is log2 of the level-i block size (blocks are validated to
	// be powers of two), so address->block on the access path is a shift.
	shift []uint

	// holders[i-1] maps a level-i block id to the bitmask of level-i cache
	// indices holding it, to make coherence invalidation O(h) per write.
	// Paged like a cache's block index: holders[i-1][p] covers block ids
	// [p*pageLen, (p+1)*pageLen) and is allocated on the first install in
	// that range; a zero mask or an absent page means no copies.  A set
	// bit may be stale (its cache has since dropped the block), a clear bit
	// never is.
	holders [][]*holderPage

	// ownMask[c][i-1] is the holder bit of the level-i cache on core c's
	// path, precomputed so the per-write invalidation scan avoids the
	// path pointer chase.
	ownMask [][]uint64

	// trace, when non-nil, chains every applied access into a rolling
	// digest of the access stream (tracecap.go) for the data-obliviousness
	// harness.
	trace *traceCap

	// The fields above are what the walker reads; the ones below are
	// written on every access, so the pad keeps them off the walker's
	// cache lines (without it, eight lockstep strands on mc3 ran 6%
	// slower per access: DESIGN.md §8, "Layout").
	_ [64]byte

	// mem holds the shared memory in pages of memPageWords words, each
	// allocated when Alloc or Poke first reaches it and never moved, so
	// growing the heap copies nothing.  Every page below heap exists.
	mem  []*memPage
	heap Addr

	// Window state (walker.go): rec, non-nil between Begin and End, is
	// the batch the accesses append their n records to.
	rec []uint64
	n   int
	wk  *walker

	// Steps is advanced by the engine (virtual time); kept here so stats
	// snapshots carry both time and traffic.
	Steps int64
}

// NewMachine validates cfg and builds the cache tree.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg}
	h1 := len(cfg.Levels) // number of cache levels = h-1
	p := cfg.Cores()
	m.ByLevel = make([][]*Cache, h1)
	for i := h1; i >= 1; i-- {
		spec := cfg.Levels[i-1]
		q := cfg.CachesAt(i)
		pu := cfg.CoresUnder(i)
		level := make([]*Cache, q)
		for j := 0; j < q; j++ {
			level[j] = &Cache{
				Level:  i,
				Index:  j,
				Block:  spec.Block,
				Cap:    spec.Capacity / spec.Block,
				Ways:   spec.Ways,
				CoreLo: j * pu,
				CoreHi: (j + 1) * pu,
			}
			if i < h1 {
				level[j].parent = m.ByLevel[i][j/cfg.Levels[i].Arity]
			}
		}
		m.ByLevel[i-1] = level
	}
	m.path = make([][]*Cache, p)
	m.l1 = make([]*Cache, p)
	m.ownMask = make([][]uint64, p)
	for c := 0; c < p; c++ {
		m.path[c] = make([]*Cache, h1)
		m.ownMask[c] = make([]uint64, h1)
		for i := 0; i < h1; i++ {
			m.path[c][i] = m.ByLevel[i][c/cfg.CoresUnder(i+1)]
			m.ownMask[c][i] = 1 << uint(m.path[c][i].Index)
		}
		m.l1[c] = m.path[c][0]
	}
	m.shift = make([]uint, h1)
	for i := 0; i < h1; i++ {
		m.shift[i] = uint(bits.TrailingZeros64(uint64(cfg.Levels[i].Block)))
	}
	m.holders = make([][]*holderPage, h1)
	return m, nil
}

// MustMachine builds a machine from cfg, panicking on invalid configs.
// Intended only for tests using the stock presets; everything user-facing
// (harness, CLIs, examples) goes through NewMachine and propagates the
// validation error.
func MustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// AddressError reports a load or store outside the allocated heap — an
// algorithm bug the simulator turns into a typed panic, which the core
// engine recovers into a RunError instead of crashing with a bare runtime
// index error.
type AddressError struct {
	Core  int // -1 for a Poke
	Addr  Addr
	Write bool
	Heap  int64 // allocated heap size in words at the time of the access
}

func (e *AddressError) Error() string {
	op := "load"
	if e.Write {
		op = "store"
	}
	who := "poke"
	if e.Core >= 0 {
		who = fmt.Sprintf("core %d", e.Core)
	}
	return fmt.Sprintf("hm: %s: %s at address %d outside the allocated heap [0, %d)", who, op, e.Addr, e.Heap)
}

// Cores returns p.
func (m *Machine) Cores() int { return len(m.path) }

// CacheOf returns the level-i cache above core c.
func (m *Machine) CacheOf(core, level int) *Cache { return m.path[core][level-1] }

// Top returns the single level-(h-1) cache.
func (m *Machine) Top() *Cache { return m.ByLevel[len(m.ByLevel)-1][0] }

// memPageShift sizes the pages of the simulated memory: 2048 words, 16 KiB.
const (
	memPageShift = 11
	memPageWords = 1 << memPageShift
	memPageMask  = memPageWords - 1
)

// memPage holds memPageWords consecutive words of the shared memory.
type memPage [memPageWords]uint64

// holderPage holds the holder masks of pageLen consecutive block ids.
type holderPage [pageLen]uint64

// Alloc reserves n words, aligned to the level-1 block size so that CGC
// chunking can respect block boundaries.  The shared memory is arbitrarily
// large in the model; the simulator allocates the pages the heap reaches.
func (m *Machine) Alloc(n int64) Addr {
	b1 := m.Cfg.Levels[0].Block
	a := (m.heap + Addr(b1) - 1) / Addr(b1) * Addr(b1)
	m.heap = a + Addr(n)
	for p := a >> memPageShift; p<<memPageShift < m.heap; p++ {
		pageOf(&m.mem, int64(p))
	}
	return a
}

// HeapWords returns the current size of the allocated heap in words.
func (m *Machine) HeapWords() int64 { return int64(m.heap) }

// miss walks core's cache path after its caller's L1 lookup found nothing:
// it fills the L1, then walks up, stopping at the first hit (or memory) and
// installing the block into every missed level on the path.  The L1 slot
// stays put for the write rule: only other caches install on the way, and
// dropExcl skips core's own L1.  The L1 hit, the overwhelmingly common
// case, never gets here: apply handles it inline.
func (m *Machine) miss(core int, a Addr, write bool) {
	path := m.path[core]
	c1, b1 := path[0], int64(a)>>m.shift[0]
	s1 := c1.fill(b1, write)
	m.setHolder(0, b1, 1<<uint(c1.Index))
	top := 0 // the highest level that installed, 0-based
	for i := 1; i < len(path); i++ {
		c, b := path[i], int64(a)>>m.shift[i]
		if c.access(b, write) {
			break
		}
		top = i
		m.setHolder(i, b, 1<<uint(c.Index))
	}
	m.dropExcl(core, top, a)
	if write {
		m.write(core, a, &c1.slots[s1])
	}
}

// write applies the exclusive-write rule to sl, core's L1 slot holding the
// block of a: the slot turns dirty, and the first write since it lost
// exclusivity invalidates every off-path copy (invalidateOffPath) and makes
// it exclusive again.  A write hit on an exclusive slot thus skips the
// scan.  It stays small enough to inline into apply and miss.
func (m *Machine) write(core int, a Addr, sl *slot) {
	sl.dirty = true
	if !sl.excl {
		m.invalidateOffPath(core, a)
		sl.excl = true
	}
}

// dropExcl runs after core's walk installed the block holding a at levels
// 1..top+1.  It clears the excl bit of every other L1's copy of every
// level-1 block inside the level-(top+1) block; the lower levels' installs
// lie inside it, so one call covers the walk.  This keeps excl exact: a
// set bit means no cache off the owning core's path holds a block covering
// the slot's, so a write hit on it would find nothing to invalidate.
// Core's own L1 is skipped, since every cache that installed is on its
// path.  holders[0] finds the copies: only installs set holder bits, so a
// resident block always has its bit.  A bit whose L1 no longer holds the
// block is cleared on the way, which no count can see.
func (m *Machine) dropExcl(core, top int, a Addr) {
	span := int64(1) << (m.shift[top] - m.shift[0])
	lo := int64(a) >> m.shift[top] << (m.shift[top] - m.shift[0])
	for b := lo; b < lo+span; b++ {
		h := m.holder(0, b)
		if h == nil {
			continue
		}
		for rest := *h &^ m.ownMask[core][0]; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros64(rest)
			c := m.ByLevel[0][j]
			if s := c.lookup(b); s != nilSlot {
				c.slots[s].excl = false
			} else {
				*h &^= 1 << uint(j)
			}
		}
	}
}

// holder returns the holder mask of level-(i+1) block b, or nil when its
// page was never touched.
func (m *Machine) holder(i int, b int64) *uint64 {
	if p := uint64(b) >> pageBits; p < uint64(len(m.holders[i])) {
		if pg := m.holders[i][p]; pg != nil {
			return &pg[b&pageMask]
		}
	}
	return nil
}

// setHolder marks a level-(i+1) cache as holding block b, allocating the
// holder page on first touch.
func (m *Machine) setHolder(i int, b int64, bit uint64) {
	pageOf(&m.holders[i], b>>pageBits)[b&pageMask] |= bit
}

// invalidateOffPath models ping-ponging: a write by core invalidates every
// copy of the containing block held by a cache not on core's path.  The
// model says the hardware support causing ping-ponging is at the size of
// B_1; caches at higher levels track their own (larger) block ids, so the
// invalidation clears the enclosing level-i block from off-path level-i
// caches.
func (m *Machine) invalidateOffPath(core int, a Addr) {
	owns := m.ownMask[core]
	for i, level := range m.ByLevel {
		b := int64(a) >> m.shift[i]
		h := m.holder(i, b)
		if h == nil {
			continue
		}
		rest := *h &^ owns[i]
		if rest == 0 {
			continue // no off-path copies
		}
		for rest != 0 {
			j := bits.TrailingZeros64(rest)
			rest &= rest - 1
			level[j].invalidate(b)
		}
		*h &= owns[i]
	}
}

// TryLoad is Load's fast path, for the engine's accesses inside a window.
// When the window's batch has room left (n < len(rec), never outside a
// window) and a lies inside the heap, it appends the access's record and
// returns the word and true.  Otherwise it does nothing and returns false,
// and the caller calls Load.  It makes no call, and the one length check
// also bounds the record's store, so it inlines into its caller (make
// inline-check).
func (m *Machine) TryLoad(core int, a Addr) (uint64, bool) {
	if uint(m.n) >= uint(len(m.rec)) || uint64(a) >= uint64(m.heap) {
		return 0, false
	}
	m.rec[m.n] = record(core, a, false)
	m.n++
	return m.mem[a>>memPageShift][a&memPageMask], true
}

// TryStore is Store's fast path, under TryLoad's rule: it writes v and
// records the access, or does nothing and returns false.
func (m *Machine) TryStore(core int, a Addr, v uint64) bool {
	if uint(m.n) >= uint(len(m.rec)) || uint64(a) >= uint64(m.heap) {
		return false
	}
	m.rec[m.n] = record(core, a, true)
	m.n++
	m.mem[a>>memPageShift][a&memPageMask] = v
	return true
}

// Load reads the word at a on behalf of core.  Out-of-heap addresses panic
// with a typed *AddressError (recovered into a RunError by the engine).
// Inside a window it records the access, handing a full batch off first;
// outside one it applies it at once (issue).
func (m *Machine) Load(core int, a Addr) uint64 {
	if uint64(a) >= uint64(m.heap) {
		panic(&AddressError{Core: core, Addr: a, Heap: int64(m.heap)})
	}
	m.issue(record(core, a, false))
	return m.mem[a>>memPageShift][a&memPageMask]
}

// Store writes the word at a on behalf of core, as Load reads it.
func (m *Machine) Store(core int, a Addr, v uint64) {
	if uint64(a) >= uint64(m.heap) {
		panic(&AddressError{Core: core, Addr: a, Write: true, Heap: int64(m.heap)})
	}
	m.issue(record(core, a, true))
	m.mem[a>>memPageShift][a&memPageMask] = v
}

// Peek reads without touching caches or counters (for verification).  A
// word without a page, such as one no Alloc or Poke has reached or one at a
// negative address, reads 0.
func (m *Machine) Peek(a Addr) uint64 {
	if p := uint64(a) >> memPageShift; p < uint64(len(m.mem)) && m.mem[p] != nil {
		return m.mem[p][a&memPageMask]
	}
	return 0
}

// Poke writes without touching caches or counters (for initialisation that
// should not be charged to the measured computation).  A word past the
// heap gets its page but does not extend the heap.  A negative address
// panics with a typed *AddressError, as a Store there would.
func (m *Machine) Poke(a Addr, v uint64) {
	if a < 0 {
		panic(&AddressError{Core: -1, Addr: a, Write: true, Heap: int64(m.heap)})
	}
	pageOf(&m.mem, int64(a>>memPageShift))[a&memPageMask] = v
}

// ResetStats zeroes every cache counter and the step counter; contents
// and heap are preserved.  Like every reader of the caches below,
// it calls Sync first, and a window goes on recording.
func (m *Machine) ResetStats() {
	m.Sync()
	for _, level := range m.ByLevel {
		for _, c := range level {
			c.ResetStats()
		}
	}
	m.Steps = 0
}

// InjectCacheFault models a transient fault at the level-level cache with
// the given index: every resident block is dropped on the floor (contents
// are lost, the next access to each block is a compulsory miss again) while
// the cache's traffic counters survive, so miss monotonicity — part of the
// engine's runtime invariants — holds across the fault.  Memory stays
// authoritative in the HM model (caches are inclusive of nothing below and
// write back on eviction in the counters only; m.mem always holds the
// current value), so a fault can never lose data — only locality.  Returns
// the number of blocks dropped.
//
// Stale holder-mask bits for the faulted cache are left in place
// deliberately: a later off-path invalidation of a non-resident block is a
// counted-nowhere no-op (Cache.invalidate checks residency first), and a
// stale bit only makes an install clear an excl bit that could have
// stayed, which costs one redundant invalidation scan, never a count.
// The faulted cache's own excl bits go with its slots: every block it
// holds again is a fresh install with excl clear.
func (m *Machine) InjectCacheFault(level, index int) int64 {
	m.Sync()
	c := m.ByLevel[level-1][index]
	dropped := c.Resident()
	c.Flush()
	return dropped
}

// FlushCaches empties every cache (cold restart) and resets stats.
func (m *Machine) FlushCaches() {
	m.Sync()
	for i, level := range m.ByLevel {
		for _, c := range level {
			c.Flush()
		}
		for _, pg := range m.holders[i] {
			if pg != nil {
				clear(pg[:])
			}
		}
	}
	m.ResetStats()
}

// LevelStats aggregates the traffic of the q_i caches at one level.
type LevelStats struct {
	Level       int
	Caches      int
	MaxMisses   int64 // the paper's cache complexity: max over caches at the level
	TotalMisses int64
	MaxXfers    int64 // max over caches of transfers in+out
	TotalXfers  int64
	Invalid     int64
}

// Snapshot summarises a run.
type Snapshot struct {
	Steps    int64
	Accesses int64 // loads and stores issued: each is one L1 hit or one L1 miss
	Levels   []LevelStats
}

// Stats returns the current per-level aggregates, after Sync.
func (m *Machine) Stats() Snapshot {
	m.Sync()
	s := Snapshot{Steps: m.Steps}
	for _, c := range m.ByLevel[0] {
		s.Accesses += c.Stats.Hits + c.Stats.Misses
	}
	for i, level := range m.ByLevel {
		ls := LevelStats{Level: i + 1, Caches: len(level)}
		for _, c := range level {
			ls.TotalMisses += c.Stats.Misses
			ls.TotalXfers += c.Stats.Transfers()
			ls.Invalid += c.Stats.Invalidations
			if c.Stats.Misses > ls.MaxMisses {
				ls.MaxMisses = c.Stats.Misses
			}
			if t := c.Stats.Transfers(); t > ls.MaxXfers {
				ls.MaxXfers = t
			}
		}
		s.Levels = append(s.Levels, ls)
	}
	return s
}

// String formats the snapshot as an aligned table.
func (s Snapshot) String() string {
	out := fmt.Sprintf("steps=%d accesses=%d\n", s.Steps, s.Accesses)
	out += fmt.Sprintf("%-6s %6s %12s %12s %12s %10s\n", "level", "caches", "maxMiss", "totMiss", "maxXfer", "invalid")
	for _, l := range s.Levels {
		out += fmt.Sprintf("L%-5d %6d %12d %12d %12d %10d\n",
			l.Level, l.Caches, l.MaxMisses, l.TotalMisses, l.MaxXfers, l.Invalid)
	}
	return out
}
