package hm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(capBlocks, block int64) *Cache {
	return &Cache{Level: 1, Index: 0, Block: block, Cap: capBlocks}
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(4, 8)
	if c.access(0, false) {
		t.Fatal("cold access hit")
	}
	if !c.access(0, false) {
		t.Fatal("second access missed")
	}
	if c.Stats.Misses != 1 || c.Stats.Hits != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newTestCache(2, 8)
	c.access(1, false)
	c.access(2, false)
	c.access(1, false) // 2 is now LRU
	c.access(3, false) // evicts 2
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatalf("LRU order wrong: 1=%v 2=%v 3=%v", c.Contains(1), c.Contains(2), c.Contains(3))
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats.Evictions)
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := newTestCache(1, 8)
	c.access(1, true)  // dirty
	c.access(2, false) // evicts dirty 1
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	c.access(3, false) // evicts clean 2
	if c.Stats.Writebacks != 1 {
		t.Fatalf("clean eviction counted a writeback")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newTestCache(4, 8)
	c.access(7, true)
	c.invalidate(7)
	if c.Contains(7) {
		t.Fatal("block still resident after invalidate")
	}
	if c.Stats.Invalidations != 1 || c.Stats.Writebacks != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	// Invalidating an absent block is a no-op.
	c.invalidate(99)
	if c.Stats.Invalidations != 1 {
		t.Fatal("absent invalidate counted")
	}
	// The freed slot is reusable without eviction.
	c.access(8, false)
	if c.Stats.Evictions != 0 {
		t.Fatal("reuse of freed slot evicted")
	}
}

// TestCacheNeverExceedsCapacity is a property test: under random access
// sequences the resident set never exceeds capacity and the hit/miss
// bookkeeping stays consistent.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	prop := func(seed int64, capLog uint8) bool {
		capBlocks := int64(1) << (capLog%6 + 1) // 2..64
		c := newTestCache(capBlocks, 8)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 2000; k++ {
			b := int64(rng.Intn(200))
			c.access(b, rng.Intn(2) == 0)
			if c.Resident() > capBlocks {
				return false
			}
			if rng.Intn(10) == 0 {
				c.invalidate(int64(rng.Intn(200)))
			}
		}
		return c.Stats.Hits+c.Stats.Misses == 2000
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheMatchesReferenceLRU cross-checks both LRU implementations
// against a slice model per set.  Timestamp sets pick their victim from a
// winner tree: trees of one and two leaves (cap1, cap2), an 8-leaf tree,
// the presets' 64-slot L1, and sixteen 4-leaf trees (the 4-way case).  The
// linked list serves the 128-block cache, above stampLRUMax.  The random
// stream mixes invalidations in with the accesses, so recorded keys go
// stale through touches, reinstalls and invalidations before their slot is
// due.  The flushed case empties the cache and the model every 5,000 steps,
// so its tree is rebuilt mid-stream from reused stamps.  The sparse case
// maps the drawn ids to pairs that straddle index page boundaries, three
// pages apart, so lookups also meet absent pages.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	dense := func(k int64) int64 { return k }
	sparse := func(k int64) int64 { return k/2*3*pageLen + pageLen - 1 + k%2 }
	for _, tc := range []struct {
		name       string
		capBlocks  int64
		ways       int64 // 0: fully associative
		flushEvery int   // 0: never
		id         func(int64) int64
	}{
		{"cap1", 1, 0, 0, dense},
		{"cap2", 2, 0, 0, dense},
		{"cap8", 8, 0, 0, dense},
		{"cap64", 64, 0, 0, dense},
		{"cap128", 128, 0, 0, dense},
		{"cap64-sparse", 64, 0, 0, sparse},
		{"cap64-4way", 64, 4, 0, dense},
		{"cap64-flushed", 64, 0, 5000, dense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Cache{Level: 1, Block: 8, Cap: tc.capBlocks, Ways: int(tc.ways)}
			ways := tc.ways
			if ways == 0 {
				ways = tc.capBlocks
			}
			sets := tc.capBlocks / ways
			ref := make([][]int64, sets) // ref[set][0] is the set's MRU
			var evictions, invalidations int64
			remove := func(b int64) bool {
				set := ref[b%sets]
				for i, x := range set {
					if x == b {
						ref[b%sets] = append(set[:i], set[i+1:]...)
						return true
					}
				}
				return false
			}
			rng := rand.New(rand.NewSource(42))
			for k := 0; k < 20000; k++ {
				if tc.flushEvery > 0 && k > 0 && k%tc.flushEvery == 0 {
					c.Flush()
					ref = make([][]int64, sets)
				}
				b := tc.id(rng.Int63n(tc.capBlocks * 5 / 2))
				if rng.Intn(8) == 0 {
					c.invalidate(b)
					if remove(b) {
						invalidations++
					}
					continue
				}
				gotHit := c.access(b, false)
				wantHit := remove(b)
				set := append([]int64{b}, ref[b%sets]...)
				if int64(len(set)) > ways {
					set = set[:ways]
					evictions++
				}
				ref[b%sets] = set
				if gotHit != wantHit {
					t.Fatalf("step %d block %d: hit=%v want %v", k, b, gotHit, wantHit)
				}
			}
			if c.Stats.Evictions != evictions || c.Stats.Invalidations != invalidations {
				t.Fatalf("evictions %d, invalidations %d; model %d, %d",
					c.Stats.Evictions, c.Stats.Invalidations, evictions, invalidations)
			}
			resident := 0
			for _, set := range ref {
				resident += len(set)
				for _, b := range set {
					if !c.Contains(b) {
						t.Fatalf("reference holds %d but cache does not", b)
					}
				}
			}
			if c.Resident() != int64(resident) {
				t.Fatalf("resident %d, model %d", c.Resident(), resident)
			}
		})
	}
}

// TestSetAssociativeConflicts: a direct-mapped cache (Ways=1) thrashes on
// addresses that collide in one set, while the fully associative cache of
// the same capacity holds them all.
func TestSetAssociativeConflicts(t *testing.T) {
	run := func(ways int) int64 {
		c := &Cache{Level: 1, Index: 0, Block: 8, Cap: 8, Ways: ways}
		// Blocks 0, 8, 16, 24 collide in set 0 when nsets=8 (direct mapped).
		for round := 0; round < 50; round++ {
			for _, b := range []int64{0, 8, 16, 24} {
				c.access(b, false)
			}
		}
		return c.Stats.Misses
	}
	direct := run(1)
	full := run(0)
	if full > 8 {
		t.Fatalf("fully associative missed %d times on 4 blocks", full)
	}
	if direct < 150 {
		t.Fatalf("direct mapped only missed %d times on a conflict set", direct)
	}
}

// TestSetAssocMatchesFullWhenOneSet: Ways == Cap must behave exactly like
// fully associative.
func TestSetAssocMatchesFullWhenOneSet(t *testing.T) {
	a := &Cache{Level: 1, Index: 0, Block: 8, Cap: 8, Ways: 8}
	b := &Cache{Level: 1, Index: 0, Block: 8, Cap: 8, Ways: 0}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 3000; k++ {
		blk := int64(rng.Intn(40))
		if a.access(blk, false) != b.access(blk, false) {
			t.Fatalf("step %d: divergence", k)
		}
	}
}

// TestSetAssocNeverExceedsSetCapacity: property test over random traces.
func TestSetAssocNeverExceedsSetCapacity(t *testing.T) {
	prop := func(seed int64) bool {
		c := &Cache{Level: 1, Index: 0, Block: 8, Cap: 16, Ways: 4}
		rng := rand.New(rand.NewSource(seed))
		perSet := make(map[int64]map[int64]bool)
		for k := 0; k < 2000; k++ {
			b := int64(rng.Intn(100))
			c.access(b, rng.Intn(2) == 0)
		}
		// Recover residency per set from the index.
		for b := int64(0); b < 100; b++ {
			if c.Contains(b) {
				s := b % 4
				if perSet[s] == nil {
					perSet[s] = map[int64]bool{}
				}
				perSet[s][b] = true
			}
		}
		for _, m := range perSet {
			if len(m) > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
