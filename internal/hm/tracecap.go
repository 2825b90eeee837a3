package hm

// Trace capture: a rolling chained digest over the machine's (core, addr,
// write) access stream, in issue order.  The data-obliviousness harness
// (internal/harness, DESIGN.md §9) runs an annotated algorithm twice on
// different random data of identical shape and requires the two digests to
// match — the dynamic ground truth behind the static `dataoblivious`
// analyzer.  The digest is O(1) state regardless of trace length: each
// access is folded into a 64-bit FNV-1a-style chain, so capturing a
// billion-access run costs two multiplies per access and no memory.
//
// Capture records at Load/Store issue time, which is the deterministic
// serial program order only outside fan-in recording: the parallel-rounds
// backend issues speculative per-core streams whose interleaving is
// thread-timing dependent.  StartTrace therefore refuses a machine in fan-in
// mode, and the harness keeps trace runs on the default serial engine.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// traceCap is the in-flight capture state.
type traceCap struct {
	hash uint64
	n    int64
}

// fold chains one 64-bit word into the digest, byte order fixed so the
// digest is platform-independent.
func (t *traceCap) fold(x uint64) {
	h := t.hash
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	t.hash = h
}

// note records one access.  Core and write share a word; the address gets
// its own, so (core=1, addr=2) and (core=2, addr=1) chain differently.
func (t *traceCap) note(core int, a Addr, write bool) {
	x := uint64(core) << 1
	if write {
		x |= 1
	}
	t.fold(x)
	t.fold(uint64(a))
	t.n++
}

// TraceDigest summarises one captured access stream.
type TraceDigest struct {
	Hash     uint64 // chained digest of the (core, addr, write) stream
	Accesses int64  // stream length, so "equal hash" also implies equal length
}

// StartTrace begins capturing the access stream into a fresh digest.  Peek
// and Poke bypass capture the same way they bypass the cache model: input
// initialisation and output verification are not part of the measured trace.
// Panics while the machine is in fan-in recording (StartRoundFanIn), whose
// issue order is not the serial program order.
func (m *Machine) StartTrace() {
	if m.fan != nil && m.fan.on {
		panic("hm: StartTrace during fan-in recording; trace capture is serial-order only")
	}
	m.trace = &traceCap{hash: fnvOffset64}
}

// EndTrace stops capturing and returns the digest of the stream since
// StartTrace.  Calling it with no capture in flight returns a zero digest.
func (m *Machine) EndTrace() TraceDigest {
	t := m.trace
	m.trace = nil
	if t == nil {
		return TraceDigest{}
	}
	return TraceDigest{Hash: t.hash, Accesses: t.n}
}

// Tracing reports whether a capture is in flight.
func (m *Machine) Tracing() bool { return m.trace != nil }
