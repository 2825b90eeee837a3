package hm

import (
	"testing"
)

func TestMachineTreeGeometry(t *testing.T) {
	m := MustMachine(HM5(2, 4, 4)) // 32 cores
	if m.Cores() != 32 {
		t.Fatalf("cores = %d", m.Cores())
	}
	if got := len(m.ByLevel); got != 4 {
		t.Fatalf("cache levels = %d", got)
	}
	// Shadows are contiguous and nested.
	for c := 0; c < m.Cores(); c++ {
		prevLo, prevHi := c, c+1
		for lv := 1; lv <= 4; lv++ {
			ca := m.CacheOf(c, lv)
			if c < ca.CoreLo || c >= ca.CoreHi {
				t.Fatalf("core %d outside its L%d shadow [%d,%d)", c, lv, ca.CoreLo, ca.CoreHi)
			}
			if ca.CoreLo > prevLo || ca.CoreHi < prevHi {
				t.Fatalf("L%d shadow not nested", lv)
			}
			prevLo, prevHi = ca.CoreLo, ca.CoreHi
		}
	}
	if m.Top().CoreLo != 0 || m.Top().CoreHi != 32 {
		t.Fatalf("top shadow = [%d,%d)", m.Top().CoreLo, m.Top().CoreHi)
	}
}

func TestUnderAndLCA(t *testing.T) {
	m := MustMachine(HM5(2, 4, 4))
	l3 := m.CacheOf(0, 3)
	l2s := m.Under(l3, 2)
	if len(l2s) != 4 {
		t.Fatalf("L2s under first L3 = %d, want 4", len(l2s))
	}
	l1s := m.Under(l3, 1)
	if len(l1s) != 8 {
		t.Fatalf("L1s under first L3 = %d, want 8", len(l1s))
	}
	if got := m.Under(l3, 3); len(got) != 1 || got[0] != l3 {
		t.Fatal("Under at own level should return itself")
	}
	if lca := m.LCA(0, 1); lca.Level != 2 {
		t.Fatalf("LCA(0,1) level = %d, want 2 (share an L2)", lca.Level)
	}
	if lca := m.LCA(0, 2); lca.Level != 3 {
		t.Fatalf("LCA(0,2) level = %d, want 3", lca.Level)
	}
	if lca := m.LCA(0, 31); lca.Level != 4 {
		t.Fatalf("LCA(0,31) level = %d, want 4", lca.Level)
	}
}

func TestSmallestFit(t *testing.T) {
	m := MustMachine(HM4(4, 4)) // C = 2^9, 2^13, 2^18
	cases := []struct {
		space int64
		level int
	}{{1, 1}, {512, 1}, {513, 2}, {1 << 13, 2}, {1 << 14, 3}, {1 << 30, 3}}
	for _, c := range cases {
		if got := m.SmallestFit(c.space); got != c.level {
			t.Errorf("SmallestFit(%d) = %d, want %d", c.space, got, c.level)
		}
	}
}

func TestAllocAlignedAndGrows(t *testing.T) {
	m := MustMachine(MC3(2))
	b1 := m.Cfg.Levels[0].Block
	a := m.Alloc(10)
	b := m.Alloc(3)
	if int64(a)%b1 != 0 || int64(b)%b1 != 0 {
		t.Fatalf("allocations not B1-aligned: %d %d", a, b)
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
	big := m.Alloc(1 << 20)
	m.Store(0, big+(1<<20)-1, 7)
	if m.Peek(big+(1<<20)-1) != 7 {
		t.Fatal("store to grown memory lost")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := MustMachine(MC3(2))
	a := m.Alloc(16)
	for i := Addr(0); i < 16; i++ {
		m.Store(0, a+i, uint64(i*i))
	}
	for i := Addr(0); i < 16; i++ {
		if got := m.Load(1, a+i); got != uint64(i*i) {
			t.Fatalf("mem[%d] = %d", i, got)
		}
	}
}

// TestScanMissCount checks the fundamental property the whole harness rests
// on: scanning n contiguous words costs ~n/B_i misses at level i.
func TestScanMissCount(t *testing.T) {
	m := MustMachine(MC3(4))
	n := int64(1 << 12)
	a := m.Alloc(n)
	for i := int64(0); i < n; i++ {
		m.Load(0, a+Addr(i))
	}
	st := m.Stats()
	for _, l := range st.Levels {
		b := m.Cfg.Levels[l.Level-1].Block
		want := n / b
		if l.TotalMisses < want || l.TotalMisses > want+2 {
			t.Errorf("L%d misses = %d, want ~%d", l.Level, l.TotalMisses, want)
		}
	}
}

// TestReuseHitsInCache checks temporal locality: re-scanning data that fits
// in L2 but not L1 hits in L2.
func TestReuseHitsInCache(t *testing.T) {
	m := MustMachine(MC3(4)) // C1 = 2^10, C2 = 2^16
	n := int64(1 << 12)      // fits L2, not L1
	a := m.Alloc(n)
	for i := int64(0); i < n; i++ {
		m.Load(0, a+Addr(i))
	}
	first := m.Stats()
	for i := int64(0); i < n; i++ {
		m.Load(0, a+Addr(i))
	}
	second := m.Stats()
	l2new := second.Levels[1].TotalMisses - first.Levels[1].TotalMisses
	if l2new != 0 {
		t.Errorf("second scan took %d L2 misses, want 0", l2new)
	}
	l1new := second.Levels[0].TotalMisses - first.Levels[0].TotalMisses
	if l1new < n/m.Cfg.Levels[0].Block {
		t.Errorf("second scan should still miss in the small L1 (got %d)", l1new)
	}
}

// TestPingPonging checks that interleaved writes to one block by two cores
// under different L1s cause invalidations (ping-ponging), while
// block-respecting writes do not.
func TestPingPonging(t *testing.T) {
	m := MustMachine(MC3(2))
	a := m.Alloc(2) // same B1 block
	for k := 0; k < 100; k++ {
		m.Store(0, a, uint64(k))
		m.Store(1, a+1, uint64(k))
	}
	st := m.Stats()
	if st.Levels[0].Invalid < 100 {
		t.Errorf("interleaved writes: L1 invalidations = %d, want >= 100", st.Levels[0].Invalid)
	}

	m2 := MustMachine(MC3(2))
	b1 := m2.Cfg.Levels[0].Block
	b := m2.Alloc(2 * b1)
	for k := 0; k < 100; k++ {
		m2.Store(0, b, uint64(k))
		m2.Store(1, b+Addr(b1), uint64(k))
	}
	if st2 := m2.Stats(); st2.Levels[0].Invalid != 0 {
		t.Errorf("block-disjoint writes: L1 invalidations = %d, want 0", st2.Levels[0].Invalid)
	}
}

func TestResetAndFlush(t *testing.T) {
	m := MustMachine(MC3(2))
	a := m.Alloc(64)
	m.Store(0, a, 1)
	m.ResetStats()
	if st := m.Stats(); st.Accesses != 0 || st.Levels[0].TotalMisses != 0 {
		t.Fatal("ResetStats left counters")
	}
	// After ResetStats (not flush) the block is still cached.
	m.Load(0, a)
	if st := m.Stats(); st.Levels[0].TotalMisses != 0 {
		t.Fatal("block was evicted by ResetStats")
	}
	m.FlushCaches()
	m.Load(0, a)
	if st := m.Stats(); st.Levels[0].TotalMisses != 1 {
		t.Fatal("FlushCaches did not empty caches")
	}
	if m.Peek(a) != 1 {
		t.Fatal("flush destroyed memory contents")
	}
}

func TestSnapshotString(t *testing.T) {
	m := MustMachine(MC3(2))
	a := m.Alloc(8)
	m.Load(0, a)
	if s := m.Stats().String(); len(s) == 0 {
		t.Fatal("empty snapshot string")
	}
}

// pagesHeld counts the allocated pages of a page table.
func pagesHeld[P any](table []*P) int64 {
	var n int64
	for _, pg := range table {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestFootprintFollowsTouchedRange: on hm4, 16 cores each stream their own
// 2^16-word slice of a 2^20-word array.  An L1's block index may cover
// only its slice's blocks plus one page (the slice is one touched
// region), and the simulated memory only the heap plus one page.
func TestFootprintFollowsTouchedRange(t *testing.T) {
	m := MustMachine(HM4(4, 4))
	const n = 1 << 20
	scanTurns(m, m.Alloc(n), n)
	sliceBlocks := n / int64(m.Cores()) / m.Cfg.Levels[0].Block
	for _, c := range m.ByLevel[0] {
		if got := pagesHeld(c.index) * pageLen; got > sliceBlocks+pageLen {
			t.Errorf("L1[%d] index covers %d blocks, want at most %d", c.Index, got, sliceBlocks+pageLen)
		}
	}
	if got := pagesHeld(m.mem) * memPageWords; got > m.HeapWords()+memPageWords {
		t.Errorf("memory holds %d words for a %d-word heap", got, m.HeapWords())
	}
}

// TestColdRunsAllocateNothing: a second pass of the same stream after
// FlushCaches reuses every page and array the first pass allocated.
func TestColdRunsAllocateNothing(t *testing.T) {
	m := MustMachine(HM4(4, 4))
	const n = 1 << 20
	a := m.Alloc(n)
	scanTurns(m, a, n)
	allocs := testing.AllocsPerRun(2, func() {
		m.FlushCaches()
		scanTurns(m, a, n)
	})
	if allocs != 0 {
		t.Fatalf("a cold pass allocated %v times", allocs)
	}
}

// TestMemoryContracts pins Peek, Poke and Load at and past the heap, and
// below it.
func TestMemoryContracts(t *testing.T) {
	const far = 3*memPageWords + 5 // past the heap, with an untouched page between
	cases := []struct {
		name string
		run  func(t *testing.T, m *Machine, a Addr)
	}{
		{"peek of an unwritten word reads 0", func(t *testing.T, m *Machine, a Addr) {
			if got := m.Peek(a + memPageWords + 7); got != 0 {
				t.Fatalf("Peek = %d, want 0", got)
			}
		}},
		{"poke past the heap reads back", func(t *testing.T, m *Machine, a Addr) {
			top := Addr(m.HeapWords())
			m.Poke(top+far, 42)
			if got := m.Peek(top + far); got != 42 {
				t.Fatalf("Peek = %d, want 42", got)
			}
			if got := m.Peek(top + memPageWords); got != 0 {
				t.Fatalf("Peek of an untouched page = %d, want 0", got)
			}
			if m.HeapWords() != int64(top) {
				t.Fatalf("Poke moved the heap to %d", m.HeapWords())
			}
		}},
		{"alloc over a poked word keeps it", func(t *testing.T, m *Machine, a Addr) {
			top := Addr(m.HeapWords())
			m.Poke(top+far, 42)
			m.Alloc(2 * far)
			if got := m.Load(0, top+far); got != 42 {
				t.Fatalf("Load = %d, want 42", got)
			}
		}},
		{"load past the heap panics", func(t *testing.T, m *Machine, a Addr) {
			top := Addr(m.HeapWords())
			m.Poke(top, 1)
			defer func() {
				e, ok := recover().(*AddressError)
				if !ok || e.Addr != top || e.Heap != int64(top) || e.Write {
					t.Fatalf("recovered %v, want a load *AddressError at %d", e, top)
				}
			}()
			m.Load(0, top)
		}},
		{"peek of a negative address reads 0", func(t *testing.T, m *Machine, a Addr) {
			if got := m.Peek(-1); got != 0 {
				t.Fatalf("Peek(-1) = %d, want 0", got)
			}
		}},
		{"poke of a negative address panics", func(t *testing.T, m *Machine, a Addr) {
			defer func() {
				e, ok := recover().(*AddressError)
				if !ok || e.Addr != -1 || !e.Write || e.Heap != m.HeapWords() {
					t.Fatalf("recovered %v, want a store *AddressError at -1", e)
				}
			}()
			m.Poke(-1, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustMachine(MC3(2))
			tc.run(t, m, m.Alloc(2*memPageWords+3))
		})
	}
}
