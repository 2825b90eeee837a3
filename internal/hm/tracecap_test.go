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
	if m.Tracing() {
		t.Fatal("fresh machine should not be tracing")
	}
	if d := m.EndTrace(); d != (TraceDigest{}) {
		t.Fatalf("EndTrace without capture: got %+v", d)
	}
	a := m.Alloc(16)
	m.StartTrace()
	if !m.Tracing() {
		t.Fatal("StartTrace did not arm capture")
	}
	m.Store(0, a, 7)
	if got := m.Load(0, a); got != 7 {
		t.Fatalf("Load after Store: got %d", got)
	}
	m.Peek(a)      // bypasses capture
	m.Poke(a+1, 9) // bypasses capture
	d := m.EndTrace()
	if m.Tracing() {
		t.Fatal("EndTrace left capture armed")
	}
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
