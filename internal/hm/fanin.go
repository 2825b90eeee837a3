package hm

// Per-core access fan-in for the parallel-rounds engine backend (DESIGN.md
// §11).  During a speculative execution phase the engine runs the front
// strand of several cores on real OS threads at once.  Each strand's memory
// accesses cannot walk the cache hierarchy directly — the walk mutates
// shared cache state and its serial order is part of the determinism
// contract — so in fan-in mode Load/Store touch only the data array (safe:
// concurrently runnable strands have disjoint footprints, the fork-join
// race-freedom the chaos sweeps already pin) and append an access record to
// a buffer owned by the issuing core.  No two strands share a core within a
// phase, so the buffers need no locks; the phase boundaries (the
// speculator launch and the conductor's wait in the engine) provide the
// happens-before edges.
//
// Strands mark round boundaries in their buffer as they cross them.  After
// the phase, the engine's serial commit walk replays the recorded chunks in
// (round, core) order — exactly the serial interleaving — through the
// serial access walk, so every cache consumes its serial input sequence in
// its serial order and all counters stay byte-identical to the serial
// engine.

// fanBuf is one core's recording buffer for the current speculative phase.
type fanBuf struct {
	recs  []uint64 // addr<<1 | writeBit, in issue order
	marks []int    // end offset in recs of each completed round
}

// roundFanIn is the fan-in state attached to a Machine while a speculative
// phase (or its commit walk) is in flight.
type roundFanIn struct {
	on   bool // intercept Load/Store (speculative phase only)
	bufs []fanBuf
}

// StartRoundFanIn switches the machine into fan-in recording: until
// EndRoundFanIn, Load and Store touch only the data array and append to the
// issuing core's buffer.  The caller (the engine) guarantees that at most
// one OS thread issues accesses for any given core during the phase.
func (m *Machine) StartRoundFanIn() {
	if m.fan == nil {
		m.fan = &roundFanIn{bufs: make([]fanBuf, m.Cores())}
	}
	for c := range m.fan.bufs {
		b := &m.fan.bufs[c]
		b.recs, b.marks = b.recs[:0], b.marks[:0]
	}
	m.fan.on = true
}

// EndRoundFanIn stops intercepting Load/Store.  The recorded buffers stay
// available for FlushFanChunk until the next StartRoundFanIn.
func (m *Machine) EndRoundFanIn() {
	if m.fan != nil {
		m.fan.on = false
	}
}

// MarkRound records a round boundary in core's buffer: everything appended
// since the previous mark belongs to the round just completed.
func (m *Machine) MarkRound(core int) {
	b := &m.fan.bufs[core]
	b.marks = append(b.marks, len(b.recs))
}

// fanChunk returns the records of core's chunk for the given 0-based round:
// recs[marks[r-1]:marks[r]], with the region past the last mark (a partial
// round, cut short by a scheduler interaction) addressed by
// round == len(marks).
func (f *roundFanIn) fanChunk(core, round int) []uint64 {
	b := &f.bufs[core]
	lo, hi := 0, len(b.recs)
	if round > 0 {
		lo = b.marks[round-1]
	}
	if round < len(b.marks) {
		hi = b.marks[round]
	}
	return b.recs[lo:hi]
}

// FlushFanChunk applies core's recorded chunk for the given round to the
// cache model through the serial access walk.  Chunks must be flushed in
// (round, core) lexicographic order — the serial interleaving — which is
// exactly the order the engine's commit walk visits turns in.
func (m *Machine) FlushFanChunk(core, round int) {
	for _, rec := range m.fan.fanChunk(core, round) {
		m.access(core, Addr(rec>>1), rec&1 != 0)
	}
}

// FlushFanRounds applies the recorded chunks of every listed core for the
// whole round range [lo, hi) — rmax complete rounds bulk-committed by the
// engine — in (round, core) lexicographic order, the serial interleaving.
// cores must be in ascending order (the engine's turn order within a
// round).
func (m *Machine) FlushFanRounds(cores []int, lo, hi int) {
	for r := lo; r < hi; r++ {
		for _, c := range cores {
			for _, rec := range m.fan.fanChunk(c, r) {
				m.access(c, Addr(rec>>1), rec&1 != 0)
			}
		}
	}
}

// record is the fan-in fast path shared by Load and Store: a record append
// on the issuing core's buffer.
func (f *roundFanIn) record(core int, a Addr, write bool) {
	rec := uint64(a) << 1
	if write {
		rec |= 1
	}
	f.bufs[core].recs = append(f.bufs[core].recs, rec)
}
