package hm

import "testing"

// TestInjectCacheFault: a transient fault drops a cache's resident blocks
// while keeping its traffic counters (miss monotonicity for the verified
// engine) and memory authoritative; the next access to a dropped block is a
// compulsory miss again.
func TestInjectCacheFault(t *testing.T) {
	m := MustMachine(MC3(4))
	base := m.Alloc(1 << 10)
	for i := int64(0); i < 256; i++ {
		m.Store(0, base+Addr(i), uint64(i))
	}
	l1 := m.ByLevel[0][0]
	if l1.Resident() == 0 {
		t.Fatal("L1[0] empty after 256 stores")
	}
	preStats := l1.Stats
	preResident := l1.Resident()

	dropped := m.InjectCacheFault(1, 0)
	if dropped != preResident {
		t.Fatalf("InjectCacheFault dropped %d blocks, cache held %d", dropped, preResident)
	}
	if l1.Resident() != 0 {
		t.Fatalf("faulted cache still holds %d blocks", l1.Resident())
	}
	if l1.Stats != preStats {
		t.Fatalf("fault changed traffic counters: %+v -> %+v", preStats, l1.Stats)
	}
	// Memory stays authoritative: the data survives, only locality is lost.
	for i := int64(0); i < 256; i++ {
		if got := m.Peek(base + Addr(i)); got != uint64(i) {
			t.Fatalf("mem[%d] = %d after fault, want %d", i, got, i)
		}
	}
	// Re-touching a dropped block pays a fresh compulsory miss.
	preMisses := l1.Stats.Misses
	if m.Load(0, base) != 0 {
		t.Fatal("reload after fault returned wrong value")
	}
	if l1.Stats.Misses != preMisses+1 {
		t.Fatalf("reload after fault: misses %d -> %d, want +1", preMisses, l1.Stats.Misses)
	}
}
