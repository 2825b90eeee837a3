package hm

// Cache is one cache in the hierarchy.  The HM model does not constrain
// associativity and the cache-oblivious literature assumes ideal (fully
// associative LRU) caches; that is the default here (Ways = 0, or Ways at
// least Cap).  A smaller Ways, a power of two, makes the cache
// set-associative with LRU within each set — an extension knob for
// studying how far the ideal-cache assumption carries (see the
// associativity tests and the ablation benchmarks).
//
// Cache state is a set of resident block ids; block id b at a level with
// block size B covers word addresses [b*B, (b+1)*B).
type Cache struct {
	Level int // 1-based cache level
	Index int // index among the q_i caches of this level, left to right
	Block int64
	Cap   int64 // capacity in blocks
	Ways  int   // blocks per set, a power of two; 0 or >= Cap = fully associative

	parent *Cache // nil at the topmost cache level
	// CoreLo/CoreHi delimit the contiguous range of cores in this cache's
	// shadow: cores [CoreLo, CoreHi).
	CoreLo, CoreHi int

	// Stats is current outside a Begin…End window of its machine and
	// after Machine.Stats or Machine.Sync; inside a window it lags the
	// accesses the walker has not applied yet.
	Stats CacheStats

	// LRU bookkeeping: slot-indexed doubly linked lists (one per set) plus
	// a block->slot index.  Set s owns slots [s*ways, (s+1)*ways).  The
	// index is the simulator's hottest lookup (a map here dominated
	// whole-run profiles), so it is a direct two-step table: index[p]
	// holds block ids [p*pageLen, (p+1)*pageLen), and a page is allocated
	// only when the cache first installs a block in it.  An L1's index
	// thus covers the blocks its own cores touched, not the whole heap.
	slots   []slot
	index   []*indexPage
	head    []int32 // per-set most recently used
	tail    []int32 // per-set least recently used
	free    []int32 // per-set free-slot list head, chained through next
	setMask int64   // number of sets - 1: Cap and ways are powers of two
	ways    int64

	// Timestamp LRU (small sets): recency is a per-slot stamp and the
	// eviction victim is the set's minimum stamp — exactly the linked-list
	// tail — but a hit costs one store instead of a list reposition.
	// stamp == nil selects the linked-list implementation for large
	// fully-associative caches.
	stamp []int64
	tick  int64

	// Winner tree of timestamp LRU: set s owns tree[s*ways:][:ways].  Node
	// ways+o is slot o's leaf, whose key, stamp<<leafBits | o, is read from
	// stamp; inner node i < ways holds the minimum of nodes 2i and 2i+1 as
	// they were when it was last computed, so the root, node 1, is a
	// minimum of recorded keys (node 0 is unused).  init computes every
	// node, and stamps only grow, so a recorded key is never above its
	// slot's current one: the root bounds every key in the set from below.
	tree []int64

	resident int64 // blocks currently held
	inited   bool
}

// pageBits sizes the pages of the block index and of Machine's holder
// masks: pageLen entries each, 16 KiB of index and 32 KiB of masks.  Pages
// are allocated on first touch and never move.  One page covers every
// block a small cold run touches, so such a run allocates one index
// object per cache, as the dense index did.
const (
	pageBits = 12
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// indexPage maps pageLen consecutive block ids to slot+1, so a zeroed
// page reads "absent".
type indexPage [pageLen]int32

// pageOf returns page p of a grow-only page table, extending the table
// with absent (nil) pages and allocating page p on first touch.  A page
// never moves once allocated.
func pageOf[P any](table *[]*P, p int64) *P {
	for int64(len(*table)) <= p {
		*table = append(*table, nil)
	}
	if (*table)[p] == nil {
		(*table)[p] = new(P)
	}
	return (*table)[p]
}

// stampLRUMax bounds the sets of timestamp LRU: caches whose sets are
// larger keep the linked-list implementation.  64 covers the L1s (touched on
// every access, a 6-level tree) while miss-heavy upper levels, where
// refreshing a deep tree per eviction would outweigh the cheap touches, stay
// on the O(1)-eviction list.  A winner-tree key keeps the slot in its low
// leafBits bits.
const (
	leafBits    = 6
	stampLRUMax = 1 << leafBits
)

type slot struct {
	block      int64
	prev, next int32
	dirty      bool
	// excl is set on an L1 slot once its core's write has invalidated every
	// off-path copy of the block; Machine clears it when any cache installs
	// a block covering it.  Only Machine reads it.
	excl bool
}

// CacheStats counts block traffic at a single cache.
type CacheStats struct {
	Hits          int64
	Misses        int64 // block transfers into the cache
	Evictions     int64
	Writebacks    int64 // dirty block transfers out
	Invalidations int64 // coherence invalidations received (ping-ponging)
}

// Transfers returns block transfers into and out of the cache, the quantity
// the paper's cache complexity bounds.
func (s CacheStats) Transfers() int64 { return s.Misses + s.Writebacks }

const nilSlot = int32(-1)

func (c *Cache) init() {
	c.ways = int64(c.Ways)
	if c.ways <= 0 || c.ways > c.Cap {
		c.ways = c.Cap
	}
	nsets := c.Cap / c.ways
	c.setMask = nsets - 1
	// Arrays are retained across Flush (see there) and reused when the
	// geometry is unchanged, so repeated cold runs allocate nothing; Flush
	// has already cleared the index pages.
	if int64(len(c.slots)) != c.Cap {
		c.slots = make([]slot, c.Cap)
	}
	if c.ways <= stampLRUMax {
		if int64(len(c.stamp)) != c.Cap {
			c.stamp = make([]int64, c.Cap)
			c.tick = 1
		}
		// Reused stamps stay monotonic (tick is not reset), so stale
		// values can never shadow fresh ones, and a tree computed from them
		// is a lower bound.
		if int64(len(c.tree)) != c.Cap {
			c.tree = make([]int64, c.Cap)
		}
	} else {
		c.stamp = nil
	}
	if int64(len(c.head)) != nsets {
		c.head = make([]int32, nsets)
		c.tail = make([]int32, nsets)
		c.free = make([]int32, nsets)
	}
	for s := int64(0); s < nsets; s++ {
		lo, hi := s*c.ways, (s+1)*c.ways
		for i := lo; i < hi; i++ {
			c.slots[i].prev = nilSlot
			c.slots[i].next = int32(i) + 1
		}
		c.slots[hi-1].next = nilSlot
		c.free[s] = int32(lo)
		c.head[s], c.tail[s] = nilSlot, nilSlot
		for i := c.ways - 1; c.stamp != nil && i > 0; i-- { // the set's tree
			if o := 2*i - c.ways; o >= 0 {
				c.tree[lo+i] = min(c.key(lo, o), c.key(lo, o+1))
			} else {
				c.tree[lo+i] = min(c.tree[lo+2*i], c.tree[lo+2*i+1])
			}
		}
	}
	c.resident = 0
	c.inited = true
}

// setOf maps a block id to its set.
func (c *Cache) setOf(b int64) int64 { return b & c.setMask }

// lookup returns the slot holding block b, or nilSlot.  It stays small
// enough to inline into the L1 hit path of Machine.Load and Machine.Store.
func (c *Cache) lookup(b int64) int32 {
	if p := uint64(b) >> pageBits; p < uint64(len(c.index)) {
		if pg := c.index[p]; pg != nil {
			return pg[b&pageMask] - 1
		}
	}
	return nilSlot
}

// setIndex records resident block b in slot s, allocating its index page
// on first touch.
func (c *Cache) setIndex(b int64, s int32) {
	pageOf(&c.index, b>>pageBits)[b&pageMask] = s + 1
}

// unindex forgets block b, which must be resident.
func (c *Cache) unindex(b int64) { c.index[b>>pageBits][b&pageMask] = 0 }

// Contains reports whether block b is resident (no LRU update, no counters).
func (c *Cache) Contains(b int64) bool { return c.lookup(b) != nilSlot }

// Resident returns the number of blocks currently held (always <= Cap).
func (c *Cache) Resident() int64 { return c.resident }

// Parent returns the next cache up on this cache's path to memory, or nil at
// the topmost level.  The failure-recovery layer (core.WithFailures) walks
// this chain to find a surviving core when a whole cache shadow is dead.
func (c *Cache) Parent() *Cache { return c.parent }

// touch makes resident block b, in slot s, its set's most recently used.
// It stays small enough to inline into the L1 hit path of Machine.Load and
// Machine.Store, so an L1 hit costs one stamp store and no call; the list
// move of large sets is a call.
func (c *Cache) touch(b int64, s int32) {
	if c.stamp != nil {
		c.stamp[s] = c.tick
		c.tick++
		return
	}
	c.moveToFront(b, s)
}

// moveToFront moves block b's slot s to the head of its set's list.
func (c *Cache) moveToFront(b int64, s int32) {
	if set := c.setOf(b); c.head[set] != s {
		c.unlink(set, s)
		c.link(set, s)
	}
}

// unlink takes slot s out of its set's list.
func (c *Cache) unlink(set int64, s int32) {
	sl := &c.slots[s]
	if sl.prev != nilSlot {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head[set] = sl.next
	}
	if sl.next != nilSlot {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail[set] = sl.prev
	}
}

// link puts slot s at the head of its set's list.
func (c *Cache) link(set int64, s int32) {
	sl := &c.slots[s]
	sl.prev, sl.next = nilSlot, c.head[set]
	if sl.next != nilSlot {
		c.slots[sl.next].prev = s
	} else {
		c.tail[set] = s
	}
	c.head[set] = s
}

// access looks up block b, updating LRU order and hit/miss counters.  On a
// miss the block is filled in.  write marks the block dirty.  Returns true
// on hit.
func (c *Cache) access(b int64, write bool) bool {
	if s := c.lookup(b); s != nilSlot {
		c.Stats.Hits++
		c.touch(b, s)
		if write {
			c.slots[s].dirty = true
		}
		return true
	}
	c.fill(b, write)
	return false
}

// fill counts a miss of absent block b and places b at its set's MRU
// position, in a free slot or in that of the set's LRU block, the minimum
// stamp of a timestamp set or the tail of a list, which it evicts (counting
// a writeback if that block was dirty).  Returns b's slot.
func (c *Cache) fill(b int64, dirty bool) int32 {
	if !c.inited {
		c.init()
	}
	c.Stats.Misses++
	set := c.setOf(b)
	s := c.free[set]
	if s != nilSlot {
		c.free[set] = c.slots[s].next
		c.resident++
	} else {
		if c.stamp != nil {
			s = c.oldest(set)
		} else {
			s = c.tail[set]
			c.unlink(set, s)
		}
		c.Stats.Evictions++
		if c.slots[s].dirty {
			c.Stats.Writebacks++
		}
		c.unindex(c.slots[s].block)
	}
	c.slots[s] = slot{block: b, prev: nilSlot, next: nilSlot, dirty: dirty}
	c.setIndex(b, s)
	if c.stamp != nil {
		c.stamp[s] = c.tick
		c.tick++
	} else {
		c.link(set, s)
	}
	return s
}

// oldest returns the slot with the minimum stamp in a full timestamp-LRU
// set.  The root of the set's winner tree bounds every key from below, so
// its slot is the minimum when the slot's key is still the recorded one.
// Otherwise that slot was touched or reinstalled since: its path to the
// root is recomputed from its current key, and the root is tried again.
func (c *Cache) oldest(set int64) int32 {
	base := set * c.ways
	if c.ways == 1 {
		return int32(base)
	}
	t := c.tree[base:][:c.ways]
	for {
		o := t[1] & (stampLRUMax - 1)
		v := c.key(base, o)
		if v == t[1] {
			return int32(base + o)
		}
		v = min(v, c.key(base, o^1))
		i := (c.ways + o) >> 1
		t[i] = v
		for ; i > 1; i >>= 1 {
			v = min(v, t[i^1])
			t[i>>1] = v
		}
	}
}

// key is the winner-tree key of slot o in the set whose first slot is base.
func (c *Cache) key(base, o int64) int64 { return c.stamp[base+o]<<leafBits | o }

// invalidate removes block b if resident, counting an invalidation.  A dirty
// victim counts a writeback (its data must move before another core's copy
// becomes authoritative).
func (c *Cache) invalidate(b int64) {
	s := c.lookup(b)
	if s == nilSlot {
		return
	}
	set := c.setOf(b)
	c.Stats.Invalidations++
	if c.slots[s].dirty {
		c.Stats.Writebacks++
	}
	c.unindex(b)
	if c.stamp == nil {
		c.unlink(set, s)
	}
	c.slots[s].next = c.free[set]
	c.free[set] = s
	c.resident--
}

// Flush empties the cache without counting traffic (used between runs).
// It clears the index pages, so no lookup needs to ask whether the cache
// has been re-initialised since; the pages and the other arrays are kept
// and recycled by the next init, so repeated cold runs are
// allocation-free.
func (c *Cache) Flush() {
	for _, pg := range c.index {
		if pg != nil {
			clear(pg[:])
		}
	}
	c.inited = false
	c.resident = 0
}

// ResetStats zeroes the traffic counters, keeping contents.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }
