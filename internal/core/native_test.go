package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The native executor's failure path: a fork joins every child before it
// re-raises a panic, a panic reaches TryRun as one *RunError however many
// forks it crosses, and a failed run leaves nothing behind that can fail
// the session's next run.  Children of a fresh fork take the first child
// onto a goroutine of its own (every token is free) and run the last one
// inline.

var errNative = errors.New("native child failed")

func nop(*Ctx) {}

func fails(*Ctx) { panic(errNative) }

// checkNativeError fails t unless err is exactly one *RunError of the
// native executor around errNative.
func checkNativeError(t *testing.T, err error) {
	t.Helper()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("TryRun error %v (%T), want a *RunError", err, err)
	}
	if re.Core != -1 || re.Label != "native" {
		t.Errorf("RunError at core %d, label %q; want core -1, label \"native\"", re.Core, re.Label)
	}
	if re.Value != error(errNative) {
		t.Errorf("RunError value %v (%T), want the child's error itself", re.Value, re.Value)
	}
	if !errors.Is(err, errNative) {
		t.Error("errors.Is does not reach the child's error")
	}
}

func TestNativeForkReraises(t *testing.T) {
	task := func(fn func(*Ctx)) Task { return Task{Space: 1, Fn: fn} }
	for _, tc := range []struct {
		name string
		root func(*Ctx)
	}{
		{"goroutine child", func(c *Ctx) { c.SpawnSB(task(fails), task(nop)) }},
		{"inline child", func(c *Ctx) { c.SpawnSB(task(nop), task(fails)) }},
		{"goroutine child two forks down", func(c *Ctx) {
			c.SpawnSB(task(func(cc *Ctx) {
				cc.SpawnCGCSB(1, 2, func(cc *Ctx, i int) {
					if i == 0 {
						fails(cc)
					}
				})
			}), task(nop))
		}},
		{"inline child two forks down", func(c *Ctx) {
			c.SpawnSB(task(nop), task(func(cc *Ctx) {
				cc.PFor(8, 1, func(cc *Ctx, lo, hi int) {
					if hi == 8 {
						fails(cc)
					}
				})
			}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewNative(2).TryRun(1, tc.root)
			checkNativeError(t, err)
		})
	}
}

// blockedFork is a root whose fork has a goroutine child that blocks until
// release is closed, then runs late, while the inline child panics with
// errNative once it has closed panicking.
func blockedFork(release, panicking chan struct{}, late func()) func(*Ctx) {
	return func(c *Ctx) {
		c.SpawnSB(
			Task{Space: 1, Fn: func(*Ctx) { <-release; late() }},
			Task{Space: 1, Fn: func(*Ctx) { close(panicking); fails(nil) }},
		)
	}
}

func TestNativeFailedForkJoinsChildren(t *testing.T) {
	s := NewNative(2)
	release, panicking := make(chan struct{}), make(chan struct{})
	var childDone atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := s.TryRun(1, blockedFork(release, panicking, func() { childDone.Store(true) }))
		done <- err
	}()
	<-panicking
	// The wait only gives an early return time to show.
	select {
	case err := <-done:
		close(release)
		t.Fatalf("TryRun returned (%v) while a forked child was still blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	err := <-done
	if !childDone.Load() {
		t.Error("TryRun returned before the released child finished")
	}
	checkNativeError(t, err)
}

func TestNativeLatePanicSparesNextRun(t *testing.T) {
	s := NewNative(2)
	base := runtime.NumGoroutine()
	release, panicking := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.TryRun(1, blockedFork(release, panicking, func() { fails(nil) }))
		done <- err
	}()
	<-panicking
	_, err := s.TryRun(1, func(c *Ctx) {
		// Let the blocked child of the failed run panic, and give its
		// goroutine time to be gone before this run forks.
		close(release)
		for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
			time.Sleep(time.Millisecond)
		}
		c.SpawnSB(Task{Space: 1, Fn: nop}, Task{Space: 1, Fn: nop})
	})
	if err != nil {
		t.Errorf("the run after a failed run failed: %v", err)
	}
	checkNativeError(t, <-done)
}

func TestNativeTokenBound(t *testing.T) {
	var live, high atomic.Int32
	var tree func(c *Ctx, depth int)
	tree = func(c *Ctx, depth int) {
		if depth == 0 {
			runtime.Gosched()
			return
		}
		child := func(cc *Ctx) {
			// A child on a goroutine of its own gets a Ctx of its own.
			if cc != c {
				n := live.Add(1)
				for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
				}
				defer live.Add(-1)
			}
			tree(cc, depth-1)
		}
		c.SpawnSB(Task{Space: 1, Fn: child}, Task{Space: 1, Fn: child}, Task{Space: 1, Fn: child})
	}
	if _, err := NewNative(1).TryRun(1, func(c *Ctx) { tree(c, 6) }); err != nil {
		t.Fatal(err)
	}
	if h := high.Load(); h < 1 || h > 4 {
		t.Errorf("at most %d children ran on goroutines of their own at once, want 1 to 4 under NewNative(1)", h)
	}
}
