package hm

// FuzzMachine is the machine-level differential check of the cache walk.
// Each input draws a valid config (1-3 cache levels, arities 1-4, Ways
// 0/1/2/4/8) and a multi-core load/store stream that
// mixes sequential, hot-set and uniform addresses, with occasional
// InjectCacheFault, FlushCaches and ResetStats.  Up to three times the heap
// grows mid-stream: an unused gap of at least 8192 blocks at every level,
// twice an index page, so the touched block ids lie pages apart, then a
// new region the stream covers from then on along with the old ones.  The
// stream runs through Machine and through refMachine, a deliberately naive
// model of the same hierarchy: per cache a map plus a recency slice, and
// per write a brute-force scan of every off-path cache at every level.
// After every step each cache's CacheStats and Resident() must agree,
// every load must return the last value stored, and after a growth every
// value stored before it must still read back.  A twin Machine runs the
// same stream inside one Begin…End window, which every syncing operation
// leaves recording, and must load the same words and end with the same
// counters; it issues each access as core.Ctx does, through the fast path
// first (TryLoad, TryStore) and the full path when that refuses.  A quiet
// stream draws no syncing operation; from 3·batchWords steps on it must
// cross at least two hand-offs.  The twin gets two CPUs, so its first
// hand-off starts a walker on any host.
// The seed corpus runs under `go test ./...`; `make fuzz` fuzzes it.

import (
	"math/rand"
	"runtime"
	"testing"
)

func FuzzMachine(f *testing.F) {
	// Seeds 54, 71, 161, 182, 187 and 225 draw multi-core machines whose
	// L1s are fully associative with 64 slots, like every preset's; 14,
	// 54, 71 and 161 put linked-list LRUs above them; 2, 101, 187 and 225
	// mix in set-associative levels; 5 draws the smallest, 2-slot L1s on 4
	// cores under a 2-way L2.  Seeds 25, 67, 121 and 199 grow the heap at
	// least twice, so each L1's blocks lie in 3 or 4 index pages with empty
	// ones between: on 12, 16, 6 and 8 cores.
	for _, seed := range []int64{1, 2, 4, 5, 14, 54, 71, 101, 161, 182, 187, 225, 25, 67, 121, 199} {
		f.Add(seed, uint16(20000), false)
	}
	// Quiet streams of 30,000 steps cross three hand-offs behind a walker:
	// seeds 54 and 101 as above, and 25, which also grows the heap.
	for _, seed := range []int64{54, 101, 25} {
		f.Add(seed, uint16(30000), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, quiet bool) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("generated an invalid config %v: %v", cfg, err)
		}
		ref := newRefMachine(cfg)
		tw := MustMachine(cfg) // the twin, walking behind its window
		begin(t, tw)
		// inWindow counts the twin's accesses since its last sync, and
		// handOffs the hand-offs crossed: one at each access that finds
		// the batch full.
		var inWindow, handOffs int
		synced := func() { inWindow = 0 }
		twinAccessed := func() {
			inWindow++
			if inWindow > batchWords && inWindow%batchWords == 1 {
				handOffs++
			}
		}
		top := cfg.Levels[len(cfg.Levels)-1].Capacity
		span := cfg.Levels[0].Capacity << uint(rng.Intn(3))
		for span < top*4 && rng.Intn(2) == 0 {
			span *= 2
		}
		// The stream addresses the regions' words as one range [0, total):
		// offset w lies in regions[k] when starts[k] <= w < starts[k+1].
		regions := []Addr{m.Alloc(span)}
		tw.Alloc(span)
		starts := []int64{0, span}
		addr := func(w int64) Addr {
			k := 0
			for starts[k+1] <= w {
				k++
			}
			return regions[k] + Addr(w-starts[k])
		}
		total := span
		mem := map[Addr]uint64{}
		hot := make([]int64, 1+rng.Intn(16))
		for i := range hot {
			hot[i] = rng.Int63n(total)
		}
		cursor := make([]int64, m.Cores())
		for i := range cursor {
			cursor[i] = rng.Int63n(total)
		}
		core := 0
		for step := 0; step < int(steps); step++ {
			r := rng.Intn(1000)
			if quiet && r < 6 {
				r = 1000 // an access in place of a syncing operation
			}
			switch {
			case r == 6 && len(regions) < 4 && rng.Intn(5) == 0:
				gap := cfg.Levels[len(cfg.Levels)-1].Block << (13 + uint(rng.Intn(2)))
				m.Alloc(gap)
				regions = append(regions, m.Alloc(span))
				tw.Alloc(gap)
				tw.Alloc(span)
				total += span
				starts = append(starts, total)
				hot[rng.Intn(len(hot))] = total - 1 - rng.Int63n(span)
				for a, v := range mem {
					if got := m.Peek(a); got != v {
						t.Fatalf("step %d: after growth, word %d = %d, want %d", step, a, got, v)
					}
				}
			case r == 0:
				m.FlushCaches()
				ref.flush()
				tw.FlushCaches()
				synced()
			case r < 3:
				m.ResetStats()
				ref.resetStats()
				tw.ResetStats()
				synced()
			case r < 6:
				level := 1 + rng.Intn(len(cfg.Levels))
				index := rng.Intn(len(m.ByLevel[level-1]))
				got := m.InjectCacheFault(level, index)
				if want := ref.fault(level, index); got != want {
					t.Fatalf("step %d: fault at L%d[%d] dropped %d blocks, model held %d", step, level, index, got, want)
				}
				if twin := tw.InjectCacheFault(level, index); twin != got {
					t.Fatalf("step %d: fault at L%d[%d] dropped %d blocks, the twin %d", step, level, index, got, twin)
				}
				synced()
			default:
				if rng.Intn(4) == 0 {
					core = rng.Intn(m.Cores())
				}
				var w int64
				switch k := rng.Intn(10); {
				case k < 4:
					cursor[core] = (cursor[core] + 1) % total
					w = cursor[core]
				case k < 7:
					w = hot[rng.Intn(len(hot))]
				default:
					w = rng.Int63n(total)
				}
				a := addr(w)
				if rng.Intn(3) == 0 {
					v := rng.Uint64()
					m.Store(core, a, v)
					store(tw, core, a, v)
					twinAccessed()
					mem[a] = v
					ref.access(core, a, true)
				} else {
					if got := m.Load(core, a); got != mem[a] {
						t.Fatalf("step %d: core %d load %d = %d, want %d", step, core, a, got, mem[a])
					}
					if got := load(tw, core, a); got != mem[a] {
						t.Fatalf("step %d: the twin's core %d load %d = %d, want %d", step, core, a, got, mem[a])
					}
					twinAccessed()
					ref.access(core, a, false)
				}
			}
			ref.check(t, m, step)
		}
		if quiet && int(steps) >= 3*batchWords && handOffs < 2 {
			t.Fatalf("a quiet stream of %d steps crossed %d hand-offs, want at least 2", steps, handOffs)
		}
		tw.End()
		for i, level := range m.ByLevel {
			for j, c := range level {
				if twin := tw.ByLevel[i][j]; twin.Stats != c.Stats || twin.Resident() != c.Resident() {
					t.Fatalf("L%d[%d]: stats %+v (%d resident), the twin %+v (%d resident)",
						i+1, j, c.Stats, c.Resident(), twin.Stats, twin.Resident())
				}
			}
		}
		for i, level := range ref.levels {
			for j, c := range level {
				for b := range c.dirty {
					if !m.ByLevel[i][j].Contains(b) {
						t.Fatalf("L%d[%d]: model holds block %d, machine does not", i+1, j, b)
					}
				}
			}
		}
	})
}

// randomConfig draws a valid machine: 1-3 cache levels, level-1 blocks of
// 1-4 words and 2-128 blocks (so both the 64-slot timestamp L1 of the
// presets and the linked-list LRU of larger sets occur), upper arities 1-4
// with capacities and blocks grown just enough to satisfy Validate.
func randomConfig(rng *rand.Rand) Config {
	ways := []int{0, 0, 0, 0, 1, 2, 4, 8} // half fully associative
	block := int64(1) << uint(rng.Intn(3))
	blocks := int64(2) << uint(rng.Intn(7))
	if blocks < block {
		blocks = block
	}
	levels := []LevelSpec{{Capacity: block * blocks, Block: block, Arity: 1, Ways: ways[rng.Intn(len(ways))]}}
	for n := 1 + rng.Intn(3); len(levels) < n; {
		prev := levels[len(levels)-1]
		arity := 1 + rng.Intn(4)
		block := prev.Block << uint(rng.Intn(2))
		capacity := prev.Capacity << uint(rng.Intn(2))
		for capacity < int64(arity)*prev.Capacity || capacity <= prev.Capacity || capacity < block*block {
			capacity *= 2
		}
		levels = append(levels, LevelSpec{Capacity: capacity, Block: block, Arity: arity, Ways: ways[rng.Intn(len(ways))]})
	}
	// Machines used to draw coherence on or off here.  The draw stays, and
	// is discarded, so every seed still replays the stream it always drew.
	_ = rng.Intn(4)
	return Config{Name: "fuzz", Levels: levels}
}

// refCache is the naive model of one cache: resident blocks in recency
// order (least recent first) and a map from each resident block to its
// dirty bit.  A miss in a full set evicts the least recent block of that
// set, found by a linear scan.
type refCache struct {
	shift       uint
	ways, nsets int64
	lru         []int64
	dirty       map[int64]bool
	stats       CacheStats
}

func (c *refCache) remove(b int64) {
	for i, x := range c.lru {
		if x == b {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			return
		}
	}
}

func (c *refCache) access(b int64, write bool) bool {
	if _, ok := c.dirty[b]; ok {
		c.stats.Hits++
		c.remove(b)
		c.lru = append(c.lru, b)
		if write {
			c.dirty[b] = true
		}
		return true
	}
	c.stats.Misses++
	inSet, victim := int64(0), int64(-1)
	for _, x := range c.lru {
		if x%c.nsets == b%c.nsets {
			if inSet == 0 {
				victim = x
			}
			inSet++
		}
	}
	if inSet == c.ways {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.Writebacks++
		}
		delete(c.dirty, victim)
		c.remove(victim)
	}
	c.lru = append(c.lru, b)
	c.dirty[b] = write
	return false
}

func (c *refCache) invalidate(b int64) {
	dirty, ok := c.dirty[b]
	if !ok {
		return
	}
	c.stats.Invalidations++
	if dirty {
		c.stats.Writebacks++
	}
	delete(c.dirty, b)
	c.remove(b)
}

func (c *refCache) drop() {
	c.lru = c.lru[:0]
	c.dirty = map[int64]bool{}
}

// refMachine is the naive model of a whole machine: levels[i][j] is cache j
// of level i+1, above cores [j*under[i], (j+1)*under[i]).
type refMachine struct {
	levels   [][]*refCache
	under    []int
	accesses int64
}

func newRefMachine(cfg Config) *refMachine {
	r := &refMachine{}
	for i, spec := range cfg.Levels {
		capBlocks := spec.Capacity / spec.Block
		ways := int64(spec.Ways)
		if ways <= 0 || ways > capBlocks {
			ways = capBlocks
		}
		shift := uint(0)
		for int64(1)<<shift < spec.Block {
			shift++
		}
		level := make([]*refCache, cfg.CachesAt(i+1))
		for j := range level {
			level[j] = &refCache{shift: shift, ways: ways, nsets: capBlocks / ways, dirty: map[int64]bool{}}
		}
		r.levels = append(r.levels, level)
		r.under = append(r.under, cfg.CoresUnder(i+1))
	}
	return r
}

// access walks core's path upward to the first hit, installing on every
// missed level; a write then invalidates the covering block in every cache
// off core's path, at every level.
func (r *refMachine) access(core int, a Addr, write bool) {
	r.accesses++
	for i, level := range r.levels {
		c := level[core/r.under[i]]
		if c.access(int64(a)>>c.shift, write) {
			break
		}
	}
	if !write {
		return
	}
	for i, level := range r.levels {
		for j, c := range level {
			if j != core/r.under[i] {
				c.invalidate(int64(a) >> c.shift)
			}
		}
	}
}

func (r *refMachine) fault(level, index int) int64 {
	c := r.levels[level-1][index]
	n := int64(len(c.lru))
	c.drop()
	return n
}

func (r *refMachine) flush() {
	for _, level := range r.levels {
		for _, c := range level {
			c.drop()
		}
	}
	r.resetStats()
}

func (r *refMachine) resetStats() {
	for _, level := range r.levels {
		for _, c := range level {
			c.stats = CacheStats{}
		}
	}
	r.accesses = 0
}

func (r *refMachine) check(t *testing.T, m *Machine, step int) {
	t.Helper()
	if got := m.Stats().Accesses; got != r.accesses {
		t.Fatalf("step %d: accesses = %d, model %d", step, got, r.accesses)
	}
	for i, level := range r.levels {
		for j, c := range level {
			got := m.ByLevel[i][j]
			if got.Stats != c.stats {
				t.Fatalf("step %d: L%d[%d] stats = %+v, model %+v", step, i+1, j, got.Stats, c.stats)
			}
			if got.Resident() != int64(len(c.lru)) {
				t.Fatalf("step %d: L%d[%d] resident = %d, model %d", step, i+1, j, got.Resident(), len(c.lru))
			}
		}
	}
}
