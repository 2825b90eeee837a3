package hm

import (
	"fmt"
	"math"
	"math/bits"
)

// Addr is a word address in the machine's shared memory.
type Addr int64

// Machine is a concrete HM machine instance: the cache tree, the cores, the
// shared memory contents, and the bump allocator.  All methods are intended
// to be called from a single goroutine at a time (the core engine serialises
// simulated cores), so Machine does no locking.
type Machine struct {
	Cfg Config

	// ByLevel[i-1] holds the q_i caches of level i, left to right, so that
	// cache j at level i covers cores [j*p'_i, (j+1)*p'_i).
	ByLevel [][]*Cache

	// path[c][i-1] is the level-i cache above core c.
	path [][]*Cache

	mem  []uint64
	heap Addr

	// shift[i-1] is log2 of the level-i block size (blocks are validated to
	// be powers of two), so address->block on the access path is a shift.
	shift []uint

	// holders[i-1] maps a level-i block id to the bitmask of level-i cache
	// indices holding it, to make coherence invalidation O(h) per write.
	// Dense slices keyed by block id, grown on demand; a zero mask means no
	// off-path copies.  nil when the config disables coherence.
	holders [][]uint64

	// ownMask[c][i-1] is the holder bit of the level-i cache on core c's
	// path, precomputed so the per-write invalidation scan avoids the
	// path pointer chase.
	ownMask [][]uint64

	// fan, while fan.on, diverts Load/Store into per-core record buffers so
	// the engine's parallel-rounds backend can run strands of distinct cores
	// on concurrent OS threads (fanin.go).  Recorded chunks reach the serial
	// walk later, via FlushFanChunk, in the serial (round, core) order.
	fan *roundFanIn

	// trace, when non-nil, chains every Load/Store into a rolling digest of
	// the access stream (tracecap.go) for the data-obliviousness harness.
	// Only meaningful outside fan-in recording; StartTrace enforces that.
	trace *traceCap

	// Steps is advanced by the engine (virtual time); kept here so stats
	// snapshots carry both time and traffic.
	Steps int64

	Accesses int64 // total loads+stores issued

	// Faults counts transient cache faults injected by InjectCacheFault
	// (core.WithFailures).  Not reset by ResetStats: a fault is a machine
	// event, not run traffic.
	Faults int64
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
	for c := 0; c < p; c++ {
		m.path[c] = make([]*Cache, h1)
		for i := 1; i <= h1; i++ {
			m.path[c][i-1] = m.ByLevel[i-1][c/cfg.CoresUnder(i)]
		}
	}
	m.shift = make([]uint, h1)
	for i := 0; i < h1; i++ {
		m.shift[i] = uint(bits.TrailingZeros64(uint64(cfg.Levels[i].Block)))
	}
	if cfg.Coherence {
		m.holders = make([][]uint64, h1)
		m.ownMask = make([][]uint64, p)
		for c := 0; c < p; c++ {
			m.ownMask[c] = make([]uint64, h1)
			for i := 0; i < h1; i++ {
				m.ownMask[c][i] = 1 << uint(m.path[c][i].Index)
			}
		}
	}
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
	Core  int
	Addr  Addr
	Write bool
	Heap  int64 // allocated heap size in words at the time of the access
}

func (e *AddressError) Error() string {
	op := "load"
	if e.Write {
		op = "store"
	}
	return fmt.Sprintf("hm: core %d: %s at address %d outside the allocated heap [0, %d)", e.Core, op, e.Addr, e.Heap)
}

// Cores returns p.
func (m *Machine) Cores() int { return len(m.path) }

// CacheOf returns the level-i cache above core c.
func (m *Machine) CacheOf(core, level int) *Cache { return m.path[core][level-1] }

// Top returns the single level-(h-1) cache.
func (m *Machine) Top() *Cache { return m.ByLevel[len(m.ByLevel)-1][0] }

// Alloc reserves n words, aligned to the level-1 block size so that CGC
// chunking can respect block boundaries.  The shared memory is arbitrarily
// large in the model; the simulator grows it on demand.
func (m *Machine) Alloc(n int64) Addr {
	if m.fan != nil && m.fan.on {
		// Growing m.mem would race the speculative strands reading it, and
		// the bump pointer's value would depend on thread interleaving.  The
		// engine serialises allocation (core.Ctx allocators); a direct
		// Session-level allocation from inside a concurrently running strand
		// is a bug at the call site, surfaced deterministically here.
		panic("hm: Alloc during a parallel execution phase; allocate through the strand's Ctx so the engine can serialise it")
	}
	b1 := m.Cfg.Levels[0].Block
	a := (m.heap + Addr(b1) - 1) / Addr(b1) * Addr(b1)
	m.heap = a + Addr(n)
	if int64(m.heap) > int64(len(m.mem)) {
		grown := make([]uint64, int64(m.heap)*2)
		copy(grown, m.mem)
		m.mem = grown
	}
	return a
}

// HeapWords returns the current size of the allocated heap in words.
func (m *Machine) HeapWords() int64 { return int64(m.heap) }

// access walks core's cache path from level 1 upward, stopping at the first
// hit (or memory), installing the block into every missed level on the path.
func (m *Machine) access(core int, a Addr, write bool) {
	m.Accesses++
	path := m.path[core]
	// L1 hit fast path: the overwhelmingly common case, kept free of the
	// level loop and the cache.access call overhead.
	c1 := path[0]
	if c1.inited {
		b := int64(a) >> m.shift[0]
		if s := c1.lookup(b); s != nilSlot {
			c1.Stats.Hits++
			c1.touch(c1.setOf(b), s)
			if write {
				c1.slots[s].dirty = true
				if m.holders != nil {
					m.invalidateOffPath(core, a)
				}
			}
			return
		}
	}
	for i, c := range path {
		b := int64(a) >> m.shift[i]
		if c.access(b, write) {
			break
		}
		if m.holders != nil {
			m.setHolder(i, b, 1<<uint(c.Index))
		}
	}
	if write && m.holders != nil {
		m.invalidateOffPath(core, a)
	}
}

// setHolder marks a level-(i+1) cache as holding block b, growing the dense
// holder slice on demand.
func (m *Machine) setHolder(i int, b int64, bit uint64) {
	h := m.holders[i]
	if b >= int64(len(h)) {
		n := int64(len(h)) * 2
		if n < b+1 {
			n = b + 1
		}
		if n < 1024 {
			n = 1024
		}
		grown := make([]uint64, n)
		copy(grown, h)
		h = grown
		m.holders[i] = h
	}
	h[b] |= bit
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
		h := m.holders[i]
		b := int64(a) >> m.shift[i]
		if b >= int64(len(h)) {
			continue
		}
		rest := h[b] &^ owns[i]
		if rest == 0 {
			continue // no off-path copies
		}
		for rest != 0 {
			j := bits.TrailingZeros64(rest)
			rest &= rest - 1
			level[j].invalidate(b)
		}
		h[b] &= owns[i]
	}
}

// Load reads the word at a on behalf of core.  Out-of-heap addresses panic
// with a typed *AddressError (recovered into a RunError by the engine).
func (m *Machine) Load(core int, a Addr) uint64 {
	if a < 0 || a >= m.heap {
		panic(&AddressError{Core: core, Addr: a, Heap: int64(m.heap)})
	}
	if t := m.trace; t != nil {
		t.note(core, a, false)
	}
	if f := m.fan; f != nil && f.on {
		f.record(core, a, false)
	} else {
		m.access(core, a, false)
	}
	return m.mem[a]
}

// Store writes the word at a on behalf of core.
func (m *Machine) Store(core int, a Addr, v uint64) {
	if a < 0 || a >= m.heap {
		panic(&AddressError{Core: core, Addr: a, Write: true, Heap: int64(m.heap)})
	}
	if t := m.trace; t != nil {
		t.note(core, a, true)
	}
	if f := m.fan; f != nil && f.on {
		f.record(core, a, true)
	} else {
		m.access(core, a, true)
	}
	m.mem[a] = v
}

// Peek reads without touching caches or counters (for verification).
func (m *Machine) Peek(a Addr) uint64 { return m.mem[a] }

// Poke writes without touching caches or counters (for initialisation that
// should not be charged to the measured computation).
func (m *Machine) Poke(a Addr, v uint64) {
	if int64(a) >= int64(len(m.mem)) {
		grown := make([]uint64, (int64(a)+1)*2)
		copy(grown, m.mem)
		m.mem = grown
	}
	m.mem[a] = v
}

// PeekF64 / PokeF64 are float64 views of Peek/Poke.
func (m *Machine) PeekF64(a Addr) float64    { return math.Float64frombits(m.Peek(a)) }
func (m *Machine) PokeF64(a Addr, v float64) { m.Poke(a, math.Float64bits(v)) }

// ResetStats zeroes every cache counter and the access/step counters;
// contents and heap are preserved.
func (m *Machine) ResetStats() {
	for _, level := range m.ByLevel {
		for _, c := range level {
			c.ResetStats()
		}
	}
	m.Steps = 0
	m.Accesses = 0
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
// counted-nowhere no-op (Cache.invalidate checks residency first).
func (m *Machine) InjectCacheFault(level, index int) int64 {
	c := m.ByLevel[level-1][index]
	dropped := c.Resident()
	c.Flush()
	m.Faults++
	return dropped
}

// FlushCaches empties every cache (cold restart) and resets stats.
func (m *Machine) FlushCaches() {
	for i, level := range m.ByLevel {
		for _, c := range level {
			c.Flush()
		}
		if m.holders != nil {
			h := m.holders[i]
			for j := range h {
				h[j] = 0
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
	Accesses int64
	Levels   []LevelStats
}

// Stats returns the current per-level aggregates.
func (m *Machine) Stats() Snapshot {
	s := Snapshot{Steps: m.Steps, Accesses: m.Accesses}
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
