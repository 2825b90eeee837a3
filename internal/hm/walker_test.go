package hm

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestWalkerMatchesDirect: on every preset, a seeded stream of loads and
// stores from every core, nine batches long, runs through twin machines.
// One walks directly; the other runs inside Begin…Sync windows with two
// CPUs, so its walker runs even on a one-CPU host.  Mid-stream both grow
// the heap, take a cache fault and have their Stats read, the last two
// syncing the windowed twin, which then begins again.  Every load must
// read the same word, and at each sync and at the end every cache's Stats
// and Resident(), the Snapshot and every word of the heap must agree.
func TestWalkerMatchesDirect(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, name := range []string{"seq", "mc3", "mc3a", "hm4", "hm5"} {
		t.Run(name, func(t *testing.T) {
			cfg := Presets()[name]
			d, w := MustMachine(cfg), MustMachine(cfg)
			rng := rand.New(rand.NewSource(int64(len(name))))
			const span = 1 << 16
			var regions []Addr
			grow := func() {
				a := d.Alloc(span)
				if b := w.Alloc(span); b != a {
					t.Fatalf("twins allocated %d and %d", a, b)
				}
				regions = append(regions, a)
			}
			cursor := make([]int64, d.Cores())
			for i := range cursor {
				cursor[i] = rng.Int63n(span)
			}
			stream := func(n int) {
				for i := 0; i < n; i++ {
					core := rng.Intn(d.Cores())
					var off int64
					if rng.Intn(4) == 0 {
						off = rng.Int63n(span)
					} else {
						cursor[core] = (cursor[core] + 1) % span
						off = cursor[core]
					}
					a := regions[rng.Intn(len(regions))] + Addr(off)
					if rng.Intn(3) == 0 {
						v := rng.Uint64()
						d.Store(core, a, v)
						w.Store(core, a, v)
					} else if x, y := d.Load(core, a), w.Load(core, a); x != y {
						t.Fatalf("core %d load %d: direct %d, walker %d", core, a, x, y)
					}
				}
				if w.wk == nil {
					t.Fatal("no walker ran the windowed twin")
				}
			}
			same := func(when string) {
				t.Helper()
				if ds, ws := d.Stats(), w.Stats(); !reflect.DeepEqual(ds, ws) {
					t.Fatalf("%s: snapshot direct %v, walker %v", when, ds, ws)
				}
				for i, level := range d.ByLevel {
					for j, c := range level {
						wc := w.ByLevel[i][j]
						if c.Stats != wc.Stats || c.Resident() != wc.Resident() {
							t.Fatalf("%s: L%d[%d] direct %+v (%d resident), walker %+v (%d resident)",
								when, i+1, j, c.Stats, c.Resident(), wc.Stats, wc.Resident())
						}
					}
				}
				for a := Addr(0); a < Addr(d.HeapWords()); a++ {
					if d.Peek(a) != w.Peek(a) {
						t.Fatalf("%s: word %d: direct %d, walker %d", when, a, d.Peek(a), w.Peek(a))
					}
				}
			}

			grow()
			w.Begin()
			stream(2*batchWords + 100)
			grow()
			stream(2*batchWords + 200)
			if x, y := d.InjectCacheFault(2, 0), w.InjectCacheFault(2, 0); x != y {
				t.Fatalf("fault dropped %d blocks directly, %d behind the walker", x, y)
			}
			same("after the fault")
			w.Begin()
			stream(2*batchWords + 300)
			same("at Stats")
			w.Begin()
			stream(batchWords + 400)
			w.Sync()
			same("at the end")
			if n := walkers.Load() + windows.Load(); n != 0 {
				t.Fatalf("%d walkers or windows left open", n)
			}
		})
	}
}

// TestWalkerTakesOnlyAFreeCPU pins the CPU rule of Begin and handOff: a
// window records, and its first full batch starts a walker, only while the
// machines inside a window plus the running walkers are fewer than
// GOMAXPROCS; a window shorter than one batch applies its records at Sync
// without starting one.
func TestWalkerTakesOnlyAFreeCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1 << 16
	fill := func(m *Machine, a Addr, words int) {
		for i := 0; i < words; i++ {
			m.Store(i%m.Cores(), a+Addr(i%n), uint64(i))
		}
	}
	t.Run("one CPU walks directly", func(t *testing.T) {
		m := MustMachine(HM4(4, 4))
		a := m.Alloc(n)
		m.Begin()
		if m.cur != nil {
			t.Fatal("GOMAXPROCS 1: the window records; want the direct walk")
		}
		fill(m, a, batchWords+1)
		if m.wk != nil || m.cur != nil {
			t.Fatalf("GOMAXPROCS 1: walker %v, batch %v; want the direct walk", m.wk != nil, m.cur != nil)
		}
		m.Sync()
	})
	runtime.GOMAXPROCS(2)
	t.Run("a short window starts nothing", func(t *testing.T) {
		m := MustMachine(HM4(4, 4))
		a := m.Alloc(n)
		m.Begin()
		fill(m, a, batchWords-1)
		if m.wk != nil || m.ByLevel[0][0].Stats.Misses != 0 {
			t.Fatal("a window shorter than one batch walked before Sync")
		}
		m.Sync()
		if m.ByLevel[0][0].Stats.Misses == 0 {
			t.Fatal("Sync did not apply the pending records")
		}
	})
	t.Run("a second machine walks directly", func(t *testing.T) {
		m1, m2 := MustMachine(HM4(4, 4)), MustMachine(HM4(4, 4))
		a1, a2 := m1.Alloc(n), m2.Alloc(n)
		m1.Begin()
		fill(m1, a1, batchWords+1)
		if m1.wk == nil {
			t.Fatal("two CPUs and one window: no walker started")
		}
		m2.Begin()
		if m2.cur != nil {
			t.Fatal("the second machine records while the first one's walker runs")
		}
		fill(m2, a2, batchWords+1)
		if m2.wk != nil || m2.cur != nil {
			t.Fatal("the second machine started a walker while the first one's ran")
		}
		m2.Sync()
		m1.Sync()
	})
	t.Run("a CPU taken after Begin walks directly", func(t *testing.T) {
		m1, m2 := MustMachine(HM4(4, 4)), MustMachine(HM4(4, 4))
		a1 := m1.Alloc(n)
		m1.Begin()
		m2.Begin()
		fill(m1, a1, batchWords+1)
		if m1.wk != nil || m1.cur != nil {
			t.Fatal("a machine started a walker with both CPUs inside windows")
		}
		m2.Sync()
		m1.Sync()
	})
	if n := walkers.Load() + windows.Load(); n != 0 {
		t.Fatalf("%d walkers or windows left open", n)
	}
}
