package core

import (
	"errors"
	"fmt"
	"strings"
)

// Typed failures of the simulated engine.  A run can fail in three ways —
// a strand's task function panics, the scheduler wedges with every live
// strand blocked, or (with invariant checking enabled) the engine catches
// itself violating its own bookkeeping — and each failure mode carries
// enough structure for a caller to diagnose it without re-running under a
// debugger.  Session.Run keeps the historical contract and panics with the
// typed error; Session.TryRun and the harness entry points return it.

// RunError reports a panic recovered from a worker strand: the panic value
// together with where the scheduler had placed the failing task.
type RunError struct {
	Core        int    // core the strand was pinned to (-1 in native mode)
	AnchorLevel int    // cache level of the strand's anchor (0 if unknown)
	AnchorIndex int    // cache index within the level
	Label       string // task label: "root", "sb", "cgc-chunk", "cgc-sb", ...
	Value       any    // the recovered panic value
}

func (e *RunError) Error() string {
	where := fmt.Sprintf("core %d", e.Core)
	if e.AnchorLevel > 0 {
		where += fmt.Sprintf(", anchor L%d[%d]", e.AnchorLevel, e.AnchorIndex)
	}
	return fmt.Sprintf("core: task %q panicked (%s): %v", e.Label, where, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so errors.Is /
// errors.As see through the recovery.
func (e *RunError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// InvariantError reports a violated engine invariant caught by the
// per-round checker (WithInvariants / WithChaos).
type InvariantError struct {
	Clock  int64
	Name   string // which invariant: "strand-conservation", "miss-monotone", ...
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: invariant %q violated at clock %d: %s", e.Name, e.Clock, e.Detail)
}

// ---- deadlock forensics ----

// CoreState is one core's scheduler state in a DeadlockReport.
type CoreState struct {
	Core       int
	QueueDepth int // runnable strands waiting on this core
	Load       int // live strands assigned to this core (runnable or blocked)
}

// BlockedStrand identifies one parked strand in a DeadlockReport.
type BlockedStrand struct {
	Core        int
	AnchorLevel int
	AnchorIndex int
	Label       string
}

// SlotState is the admission state of one cache slot in a DeadlockReport:
// occupancy versus capacity plus the space demands still waiting in Q(λ).
type SlotState struct {
	Level    int
	Index    int
	Used     int64 // words reserved by currently anchored tasks
	Capacity int64 // C_i in words
	Anchored int   // tasks currently holding reservations
	Queued   int   // tasks waiting in Q(λ)
	Demands  []int64
}

// Name renders the slot as "L<level>[<index>]".
func (s SlotState) Name() string { return fmt.Sprintf("L%d[%d]", s.Level, s.Index) }

// DeadlockReport is the structured diagnosis the engine assembles when a
// round completes without any strand making progress: which strands are
// parked where, what every core's queue looks like, and which cache slots
// hold reservations or starving queues.
type DeadlockReport struct {
	Clock    int64
	Live     int // strands not yet finished
	Runnable int // strands sitting in run queues
	Queued   int // tasks waiting in cache queues
	Cores    []CoreState
	Blocked  []BlockedStrand
	Slots    []SlotState // only slots with reservations or queued tasks
}

// Starved names the cache slots with tasks stuck in Q(λ) — the usual
// culprits of a wedged run.
func (r *DeadlockReport) Starved() []string {
	var out []string
	for _, s := range r.Slots {
		if s.Queued > 0 {
			out = append(out, s.Name())
		}
	}
	return out
}

func (r *DeadlockReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: deadlock at clock %d: %d live strands (%d runnable, %d blocked), %d queued tasks\n",
		r.Clock, r.Live, r.Runnable, len(r.Blocked), r.Queued)
	if len(r.Blocked) > 0 {
		b.WriteString("  blocked strands:\n")
		for _, s := range r.Blocked {
			fmt.Fprintf(&b, "    core %d: anchor L%d[%d] task %q\n", s.Core, s.AnchorLevel, s.AnchorIndex, s.Label)
		}
	}
	b.WriteString("  cores (queue depth / live load):\n")
	for _, c := range r.Cores {
		if c.QueueDepth == 0 && c.Load == 0 {
			continue
		}
		fmt.Fprintf(&b, "    core %d: %d queued, %d live\n", c.Core, c.QueueDepth, c.Load)
	}
	if len(r.Slots) > 0 {
		b.WriteString("  cache slots under pressure:\n")
		for _, s := range r.Slots {
			fmt.Fprintf(&b, "    %s: used %d/%d words, %d anchored, %d queued", s.Name(), s.Used, s.Capacity, s.Anchored, s.Queued)
			if len(s.Demands) > 0 {
				fmt.Fprintf(&b, " (pending space demands: %v)", s.Demands)
			}
			b.WriteByte('\n')
		}
	}
	if starved := r.Starved(); len(starved) > 0 {
		fmt.Fprintf(&b, "  starved: %s\n", strings.Join(starved, ", "))
	}
	return b.String()
}

// DeadlockError wraps a DeadlockReport as the error returned (or panicked,
// via Session.Run) when the engine's backstop trips.
type DeadlockError struct {
	Report DeadlockReport
}

func (e *DeadlockError) Error() string { return strings.TrimRight(e.Report.String(), "\n") }

// ---- failure injection ----

// ErrWatchdog is the sentinel a watchdog-tripped *FailureError matches via
// errors.Is, so callers can branch on "the run livelocked" without
// inspecting the structured fields.
var ErrWatchdog = errors.New("core: watchdog round budget exhausted")

// FailureError reports a failure-layer error: a watchdog trip (kind
// "watchdog" — the run was still live past the WithWatchdog round budget,
// a livelock turned into a typed error instead of a hang) or an invalid
// failure plan (kind "plan", rejected before the run starts).  Watchdog
// errors carry the scheduler forensics of the final round and, when failure
// injection was active, the recovery report accumulated so far.
type FailureError struct {
	Kind      string // "watchdog" | "plan"
	Clock     int64
	Detail    string
	Recovery  *RecoveryReport // nil unless WithFailures was active
	Forensics *DeadlockReport // nil for plan errors
}

func (e *FailureError) Error() string {
	switch e.Kind {
	case "watchdog":
		return fmt.Sprintf("core: watchdog tripped at clock %d: %s", e.Clock, e.Detail)
	case "plan":
		return fmt.Sprintf("core: invalid failure plan: %s", e.Detail)
	}
	return fmt.Sprintf("core: failure (%s): %s", e.Kind, e.Detail)
}

// Is matches watchdog-kind failures against the ErrWatchdog sentinel.
func (e *FailureError) Is(target error) bool {
	return target == ErrWatchdog && e.Kind == "watchdog"
}

// IsRunFailure reports whether err is one of the engine's typed run
// failures (RunError, DeadlockError, InvariantError, FailureError).  The
// engine's tests use it to tell a run failure from any other error.
func IsRunFailure(err error) bool {
	switch err.(type) {
	case *RunError, *DeadlockError, *InvariantError, *FailureError:
		return true
	}
	return false
}
