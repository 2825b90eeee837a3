package hm

import "testing"

// The digest must separate streams that differ in any tuple component —
// core, address, or direction — and in length.
func TestTraceDigestSeparatesStreams(t *testing.T) {
	digest := func(f func(t *traceCap)) uint64 {
		tc := &traceCap{hash: fnvOffset64}
		f(tc)
		return tc.hash
	}
	base := digest(func(tc *traceCap) { tc.note(record(1, 2, false)) })
	for name, h := range map[string]uint64{
		"core":  digest(func(tc *traceCap) { tc.note(record(2, 2, false)) }),
		"addr":  digest(func(tc *traceCap) { tc.note(record(1, 3, false)) }),
		"write": digest(func(tc *traceCap) { tc.note(record(1, 2, true)) }),
		"swap":  digest(func(tc *traceCap) { tc.note(record(2, 1, false)) }),
		"len":   digest(func(tc *traceCap) { tc.note(record(1, 2, false)); tc.note(record(1, 2, false)) }),
	} {
		if h == base {
			t.Errorf("%s variation did not change the digest (%016x)", name, base)
		}
	}
	if again := digest(func(tc *traceCap) { tc.note(record(1, 2, false)) }); again != base {
		t.Errorf("identical streams disagree: %016x vs %016x", base, again)
	}
}

func TestTraceCaptureLifecycle(t *testing.T) {
	m := MustMachine(Seq())
	if d := m.EndTrace(); d != (TraceDigest{}) {
		t.Fatalf("EndTrace on a fresh machine: got %+v, want the zero digest", d)
	}
	m.StartTrace()
	if d := m.EndTrace(); d != (TraceDigest{Hash: fnvOffset64}) {
		t.Fatalf("EndTrace of an empty capture: got %+v, want the FNV offset and no accesses", d)
	}
	if d := m.EndTrace(); d != (TraceDigest{}) {
		t.Fatalf("EndTrace after EndTrace: got %+v, want the zero digest", d)
	}
	a := m.Alloc(16)
	m.StartTrace()
	m.Store(0, a, 7)
	if got := m.Load(0, a); got != 7 {
		t.Fatalf("Load after Store: got %d", got)
	}
	m.Peek(a)      // bypasses capture
	m.Poke(a+1, 9) // bypasses capture
	d := m.EndTrace()
	if d.Accesses != 2 {
		t.Fatalf("captured %d accesses, want 2 (Peek/Poke must bypass)", d.Accesses)
	}
	m.StartTrace()
	m.Store(0, a, 7)
	m.Load(0, a)
	if d2 := m.EndTrace(); d2 != d {
		t.Fatalf("replaying the same stream changed the digest: %+v vs %+v", d2, d)
	}
}
