package hm

// Microbenchmarks of the cache walk alone, without the engine or an
// algorithm on top: one Load or Store per op, except for the cold scan,
// whose op is a whole run on a fresh machine.  `make bench-smoke` runs each
// once as a crash gate; time them with
// `go test -run '^$' -bench Machine -benchmem -count 5 ./internal/hm`.

import (
	"math/rand"
	"testing"
)

var benchSink uint64

// BenchmarkMachineL1HitLoad: loads that always hit core 0's L1 on hm4.
func BenchmarkMachineL1HitLoad(b *testing.B) {
	m := MustMachine(HM4(4, 4))
	const n = 256 // half of the 512-word L1
	a := m.Alloc(n)
	for i := Addr(0); i < n; i++ {
		m.Load(0, a+i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.Load(0, a+Addr(i&(n-1)))
	}
}

// BenchmarkMachineL1HitStore: stores that always hit core 0's L1 on hm4,
// to blocks no other cache holds.
func BenchmarkMachineL1HitStore(b *testing.B) {
	m := MustMachine(HM4(4, 4))
	const n = 256
	a := m.Alloc(n)
	for i := Addr(0); i < n; i++ {
		m.Store(0, a+i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(0, a+Addr(i&(n-1)), uint64(i))
	}
}

// BenchmarkMachineStreamHM4: one core reads then writes each word of a
// region 4x the hm4 L3, in order (the access pattern of an in-place scan).
func BenchmarkMachineStreamHM4(b *testing.B) {
	m := MustMachine(HM4(4, 4))
	const n = 1 << 20
	a := m.Alloc(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := a + Addr(i>>1&(n-1))
		if i&1 == 0 {
			benchSink += m.Load(0, w)
		} else {
			m.Store(0, w, uint64(i))
		}
	}
}

// BenchmarkMachineRandomMC3: uniform random loads and stores (one in four)
// by all 8 cores of mc3 over half its L2, so most accesses miss the L1,
// hit the L2, and writes invalidate other cores' copies.
func BenchmarkMachineRandomMC3(b *testing.B) {
	m := MustMachine(MC3(8))
	const n, ops = 1 << 15, 1 << 16
	a := m.Alloc(n)
	rng := rand.New(rand.NewSource(1))
	addr := make([]Addr, ops)
	core := make([]int, ops)
	for i := range addr {
		addr[i] = a + Addr(rng.Intn(n))
		core[i] = rng.Intn(m.Cores())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (ops - 1)
		if i&3 == 3 {
			m.Store(core[k], addr[k], uint64(i))
		} else {
			benchSink += m.Load(core[k], addr[k])
		}
	}
}

// BenchmarkMachineColdScanHM4: a fresh hm4 machine per op, whose 16 cores
// stream a 2^20-word array in scanTurns: the access pattern of
// scan-stream without the engine.  Its B/op is the host memory the hm
// layer allocates for that run.
func BenchmarkMachineColdScanHM4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := MustMachine(HM4(4, 4))
		const n = 1 << 20
		scanTurns(m, m.Alloc(n), n)
	}
}

// BenchmarkMachineColdScanHM4Walker: the cold scan of
// BenchmarkMachineColdScanHM4 inside a Begin…End window, so its cache walk
// runs on a walker goroutine when a second CPU is free.
func BenchmarkMachineColdScanHM4Walker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := MustMachine(HM4(4, 4))
		const n = 1 << 20
		a := m.Alloc(n)
		m.Begin()
		scanTurns(m, a, n)
		m.End()
	}
}

// scanTurns splits the n words at a into one contiguous chunk per core and
// lets the cores take turns of 32 accesses each, a load and a store of 16
// consecutive words of their own chunk, until every word has been read
// and written once.
func scanTurns(m *Machine, a Addr, n int64) {
	p := int64(m.Cores())
	chunk := n / p
	for off := int64(0); off < chunk; off += 16 {
		for c := 0; c < int(p); c++ {
			w := a + Addr(int64(c)*chunk+off)
			for k := Addr(0); k < 16; k++ {
				m.Store(c, w+k, m.Load(c, w+k)+1)
			}
		}
	}
}
