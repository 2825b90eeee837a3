package hm

// Trace capture: a rolling chained digest over the machine's (core, addr,
// write) access stream, in issue order.  The data-obliviousness harness
// (internal/harness, DESIGN.md §9) runs an annotated algorithm twice on
// different random data of identical shape and requires the two digests to
// match — the dynamic ground truth behind the static `dataoblivious`
// analyzer.  The digest is O(1) state regardless of trace length: each
// access is folded into a 64-bit FNV-1a-style chain, so capturing a
// billion-access run costs two multiplies per access and no memory.
// apply folds each record as it consumes it, in issue order, which is the
// engine's deterministic serial program order; StartTrace and EndTrace
// sync first, so the digest covers exactly the accesses issued between
// them.

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

// note folds one access record.  Core and write, the record's low recShift
// bits, share a word; the address gets its own, so (core=1, addr=2) and
// (core=2, addr=1) chain differently.
func (t *traceCap) note(r uint64) {
	t.fold(r & (1<<recShift - 1))
	t.fold(r >> recShift)
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
func (m *Machine) StartTrace() {
	m.Sync()
	m.trace = &traceCap{hash: fnvOffset64}
}

// EndTrace stops capturing and returns the digest of the stream since
// StartTrace.  Calling it with no capture in flight returns a zero digest.
func (m *Machine) EndTrace() TraceDigest {
	m.Sync()
	t := m.trace
	m.trace = nil
	if t == nil {
		return TraceDigest{}
	}
	return TraceDigest{Hash: t.hash, Accesses: t.n}
}
