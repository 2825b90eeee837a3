package hm

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// load and store issue an access as core.Ctx does: the fast path first,
// the full path when it refuses.
func load(m *Machine, core int, a Addr) uint64 {
	if v, ok := m.TryLoad(core, a); ok {
		return v
	}
	return m.Load(core, a)
}

func store(m *Machine, core int, a Addr, v uint64) {
	if !m.TryStore(core, a, v) {
		m.Store(core, a, v)
	}
}

// begin opens m's window and closes it when the test ends, so a test that
// fails inside a window leaves no window open for the next one.
func begin(t *testing.T, m *Machine) {
	m.Begin()
	t.Cleanup(m.End)
}

// sameCounts fails unless every cache of the two machines has the same
// Stats and Resident(); it reads the fields directly, without syncing.
func sameCounts(t *testing.T, when string, d, w *Machine) {
	t.Helper()
	for i, level := range d.ByLevel {
		for j, c := range level {
			wc := w.ByLevel[i][j]
			if c.Stats != wc.Stats || c.Resident() != wc.Resident() {
				t.Fatalf("%s: L%d[%d] direct %+v (%d resident), windowed %+v (%d resident)",
					when, i+1, j, c.Stats, c.Resident(), wc.Stats, wc.Resident())
			}
		}
	}
}

// TestWalkerMatchesDirect: on every preset, a seeded stream of loads and
// stores from every core, nine batches long, runs through twin machines.
// One is never begun and applies each access at once; the other runs
// inside one Begin…End window with two CPUs, so its walker runs even on a
// one-CPU host, and issues each access through the fast path first, as
// core.Ctx does.  Mid-stream both grow the heap, take a cache fault and
// have their Stats read, the last two syncing the windowed twin, whose
// window goes on recording and starts a new walker.  Every load must read
// the same word, and at each sync and at End every cache's Stats and
// Resident(), the Snapshot and every word of the heap must agree, and the
// Snapshot must count every access issued.
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
			var issued int64
			stream := func(n int) {
				issued += int64(n)
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
						store(w, core, a, v)
					} else if x, y := d.Load(core, a), load(w, core, a); x != y {
						t.Fatalf("core %d load %d: direct %d, walker %d", core, a, x, y)
					}
				}
				if w.wk == nil {
					t.Fatal("no walker ran the windowed twin")
				}
			}
			same := func(when string) {
				t.Helper()
				ds, ws := d.Stats(), w.Stats()
				if !reflect.DeepEqual(ds, ws) {
					t.Fatalf("%s: snapshot direct %v, walker %v", when, ds, ws)
				}
				if ws.Accesses != issued {
					t.Fatalf("%s: the snapshot counts %d accesses, %d were issued", when, ws.Accesses, issued)
				}
				sameCounts(t, when, d, w)
				for a := Addr(0); a < Addr(d.HeapWords()); a++ {
					if d.Peek(a) != w.Peek(a) {
						t.Fatalf("%s: word %d: direct %d, walker %d", when, a, d.Peek(a), w.Peek(a))
					}
				}
			}

			grow()
			begin(t, w)
			stream(2*batchWords + 100)
			grow()
			stream(2*batchWords + 200)
			if x, y := d.InjectCacheFault(2, 0), w.InjectCacheFault(2, 0); x != y {
				t.Fatalf("fault dropped %d blocks directly, %d behind the walker", x, y)
			}
			same("after the fault")
			stream(2*batchWords + 300)
			same("at Stats")
			stream(batchWords + 400)
			w.End()
			same("at End")
			if n := walkers.Load() + windows.Load(); n != 0 {
				t.Fatalf("%d walkers or windows left open", n)
			}
		})
	}
}

// TestFastPath pins the edges of TryLoad and TryStore against a machine
// that is never begun: a trace capture inside a window, the heap's end and
// a batch the fast path fills to its last slot.
func TestFastPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 1 << 12
	t.Run("a trace inside a window", func(t *testing.T) {
		d, w := MustMachine(MC3(8)), MustMachine(MC3(8))
		a := d.Alloc(n)
		w.Alloc(n)
		begin(t, w)
		both := func(k int) {
			for i := 0; i < k; i++ {
				core, x := i%d.Cores(), a+Addr(i*7%(n-1))
				d.Store(core, x, uint64(i))
				store(w, core, x, uint64(i))
				if y, z := d.Load(core, x+1), load(w, core, x+1); y != z {
					t.Fatalf("load %d: direct %d, windowed %d", x+1, y, z)
				}
			}
		}
		both(100)
		d.StartTrace()
		w.StartTrace()
		both(batchWords - 1)
		if w.wk == nil {
			t.Fatal("no walker ran the windowed twin's traced accesses")
		}
		if _, ok := w.TryLoad(0, a); !ok {
			t.Fatal("the fast path refused a load while a trace capture runs")
		}
		if !w.TryStore(0, a, 1) {
			t.Fatal("the fast path refused a store while a trace capture runs")
		}
		d.Load(0, a)
		d.Store(0, a, 1)
		if dd, wd := d.EndTrace(), w.EndTrace(); dd != wd || dd.Accesses != 2*batchWords {
			t.Fatalf("digest never begun %+v, windowed %+v; want %d accesses", dd, wd, 2*batchWords)
		}
		both(100)
		w.Sync()
		sameCounts(t, "at Sync", d, w)
	})
	t.Run("the heap's end", func(t *testing.T) {
		d, w := MustMachine(HM4(4, 4)), MustMachine(HM4(4, 4))
		end := d.Alloc(n) + n
		w.Alloc(n)
		begin(t, w)
		if _, ok := w.TryLoad(1, end); ok {
			t.Fatal("the fast path took a load at the heap's end")
		}
		if w.TryStore(1, end, 1) {
			t.Fatal("the fast path took a store at the heap's end")
		}
		if _, ok := w.TryLoad(1, end-1); !ok {
			t.Fatal("the fast path refused a load of the heap's last word")
		}
		d.Load(1, end-1)
		for _, write := range []bool{false, true} {
			msg := func(m *Machine) (s string) {
				defer func() {
					e, ok := recover().(*AddressError)
					if !ok {
						t.Fatalf("write %v at the heap's end: no *AddressError", write)
					}
					s = e.Error()
				}()
				if write {
					store(m, 1, end, 1)
				} else {
					load(m, 1, end)
				}
				return ""
			}
			if x, y := msg(d), msg(w); x != y {
				t.Fatalf("direct %q, windowed %q", x, y)
			}
		}
		w.Sync()
		sameCounts(t, "at Sync", d, w)
	})
	t.Run("a batch filled to its last slot", func(t *testing.T) {
		d, w := MustMachine(MC3(8)), MustMachine(MC3(8))
		a := d.Alloc(n)
		w.Alloc(n)
		begin(t, w)
		for i := 0; i < batchWords; i++ {
			core, x := i%d.Cores(), a+Addr(i%n)
			d.Store(core, x, uint64(i))
			if !w.TryStore(core, x, uint64(i)) {
				t.Fatalf("the fast path refused access %d of %d", i, batchWords)
			}
		}
		if w.n != batchWords || w.wk != nil {
			t.Fatalf("after one batch: %d records, walker %v; want %d, false", w.n, w.wk != nil, batchWords)
		}
		if _, ok := w.TryLoad(0, a); ok {
			t.Fatal("the fast path took a load into a full batch")
		}
		if x, y := d.Load(0, a), w.Load(0, a); x != y {
			t.Fatalf("load %d: direct %d, windowed %d", a, x, y)
		}
		if w.n != 1 {
			t.Fatalf("after the hand-off: %d records, want 1", w.n)
		}
		w.Sync()
		sameCounts(t, "at Sync", d, w)
	})
	if k := walkers.Load() + windows.Load(); k != 0 {
		t.Fatalf("%d walkers or windows left open", k)
	}
}

// TestWalkerTakesOnlyAFreeCPU pins the CPU rule of handOff.  Every window
// records; a full batch starts a walker only while the machines inside a
// window plus the running walkers are fewer than GOMAXPROCS, and is
// otherwise applied on the caller's goroutine, the window recording on.  A
// window shorter than one batch applies its records at Sync.  Each case
// ends with the counts of a machine that was never begun, and a snapshot
// that counts every access issued.
func TestWalkerTakesOnlyAFreeCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1 << 16
	// fill issues words stores to m and to its direct twin d.
	fill := func(m, d *Machine, a Addr, words int) {
		for i := 0; i < words; i++ {
			core, x := i%m.Cores(), a+Addr(i%n)
			store(m, core, x, uint64(i))
			d.Store(core, x, uint64(i))
		}
	}
	twins := func(t *testing.T) (m, d *Machine, a Addr) {
		m, d = MustMachine(HM4(4, 4)), MustMachine(HM4(4, 4))
		a = m.Alloc(n)
		d.Alloc(n)
		begin(t, m)
		return m, d, a
	}
	synced := func(t *testing.T, m, d *Machine, issued int64) {
		t.Helper()
		if got := m.Stats().Accesses; got != issued {
			t.Fatalf("the snapshot counts %d accesses, %d were issued", got, issued)
		}
		sameCounts(t, "at Sync", d, m)
	}
	t.Run("one CPU applies batches inline", func(t *testing.T) {
		m, d, a := twins(t)
		if m.rec == nil {
			t.Fatal("GOMAXPROCS 1: the window does not record")
		}
		fill(m, d, a, 2*batchWords+1)
		if m.wk != nil || m.rec == nil {
			t.Fatalf("GOMAXPROCS 1: walker %v, recording %v; want no walker, recording", m.wk != nil, m.rec != nil)
		}
		if m.ByLevel[0][0].Stats.Misses == 0 {
			t.Fatal("GOMAXPROCS 1: the full batches were not applied")
		}
		synced(t, m, d, 2*batchWords+1)
	})
	runtime.GOMAXPROCS(2)
	t.Run("a short window starts nothing", func(t *testing.T) {
		m, d, a := twins(t)
		fill(m, d, a, batchWords-1)
		if m.wk != nil || m.ByLevel[0][0].Stats.Misses != 0 {
			t.Fatal("a window shorter than one batch walked before Sync")
		}
		synced(t, m, d, batchWords-1)
	})
	t.Run("a second machine records beside a walker", func(t *testing.T) {
		m1, d1, a1 := twins(t)
		fill(m1, d1, a1, batchWords+1)
		if m1.wk == nil {
			t.Fatal("two CPUs and one window: no walker started")
		}
		m2, d2, a2 := twins(t)
		fill(m2, d2, a2, 2*batchWords+1)
		if m2.wk != nil || m2.rec == nil {
			t.Fatalf("beside a walker: walker %v, recording %v; want no walker, recording", m2.wk != nil, m2.rec != nil)
		}
		synced(t, m2, d2, 2*batchWords+1)
		synced(t, m1, d1, batchWords+1)
	})
	t.Run("a walker starts once a CPU frees up", func(t *testing.T) {
		m1, d1, a1 := twins(t)
		m2, _, _ := twins(t)
		fill(m1, d1, a1, batchWords+1)
		if m1.wk != nil {
			t.Fatal("a machine started a walker with both CPUs inside windows")
		}
		m2.End()
		fill(m1, d1, a1, batchWords)
		if m1.wk == nil {
			t.Fatal("no walker started at the full batch after a CPU freed up")
		}
		synced(t, m1, d1, 2*batchWords+1)
	})
	if k := walkers.Load() + windows.Load(); k != 0 {
		t.Fatalf("%d walkers or windows left open", k)
	}
}

// TestWindowOutlivesReads: every operation that syncs a window leaves it
// recording.  After Stats, ResetStats, FlushCaches, InjectCacheFault,
// StartTrace and EndTrace, each reached behind a running walker, the
// window count is unchanged, the walker is stopped, the counts and the
// trace digest are those of a machine that is never begun, and the fast
// path takes the next access.  End closes the window: the count drops, and
// the fast path refuses.
func TestWindowOutlivesReads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 1 << 14
	d, w := MustMachine(HM4(4, 4)), MustMachine(HM4(4, 4))
	a := d.Alloc(n)
	w.Alloc(n)
	open := windows.Load()
	begin(t, w)
	stream := func(k int) {
		for i := 0; i < k; i++ {
			core, x := i%d.Cores(), a+Addr(i*5%n)
			if i%3 == 0 {
				d.Store(core, x, uint64(i))
				store(w, core, x, uint64(i))
			} else if y, z := d.Load(core, x), load(w, core, x); y != z {
				t.Fatalf("load %d: never begun %d, windowed %d", x, y, z)
			}
		}
	}
	var dd, wd TraceDigest
	for _, op := range []struct {
		name string
		do   func(m *Machine) TraceDigest
	}{
		{"Stats", func(m *Machine) TraceDigest { m.Stats(); return TraceDigest{} }},
		{"ResetStats", func(m *Machine) TraceDigest { m.ResetStats(); return TraceDigest{} }},
		{"FlushCaches", func(m *Machine) TraceDigest { m.FlushCaches(); return TraceDigest{} }},
		{"InjectCacheFault", func(m *Machine) TraceDigest { m.InjectCacheFault(2, 1); return TraceDigest{} }},
		{"StartTrace", func(m *Machine) TraceDigest { m.StartTrace(); return TraceDigest{} }},
		{"EndTrace", (*Machine).EndTrace},
	} {
		stream(batchWords + 100)
		if w.wk == nil {
			t.Fatalf("before %s: no walker ran", op.name)
		}
		dd, wd = op.do(d), op.do(w)
		if dd != wd {
			t.Fatalf("%s: digest never begun %+v, windowed %+v", op.name, dd, wd)
		}
		if k := windows.Load(); k != open+1 || w.rec == nil || w.wk != nil {
			t.Fatalf("after %s: %d windows, recording %v, walker %v; want %d, true, false",
				op.name, k, w.rec != nil, w.wk != nil, open+1)
		}
		sameCounts(t, "after "+op.name, d, w)
		if _, ok := w.TryLoad(1, a); !ok {
			t.Fatalf("after %s the fast path refused a load", op.name)
		}
		d.Load(1, a)
	}
	if dd.Accesses != batchWords+101 {
		t.Fatalf("the trace holds %d accesses, want %d", dd.Accesses, batchWords+101)
	}
	w.End()
	if k := windows.Load(); k != open || w.rec != nil {
		t.Fatalf("after End: %d windows, recording %v; want %d, false", k, w.rec != nil, open)
	}
	if _, ok := w.TryLoad(1, a); ok {
		t.Fatal("the fast path took a load after End")
	}
	d.Load(1, a)
	w.Load(1, a)
	sameCounts(t, "after End", d, w)
}
