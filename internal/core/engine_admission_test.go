package core

// Admission-discipline regression tests: the space-bound scheduler must
// serialise tasks whose combined space exceeds a cache's capacity (queueing
// them in Q(λ) and admitting as reservations release), and the engine must
// detect — with a stable, descriptive panic — configurations that can never
// make progress.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"oblivhm/internal/hm"
)

// TestAdmissionSerialises: 8 tasks each reserving a full L2 on a machine
// with only 2 L2 caches.  At most two can hold reservations at once; the
// rest must wait in the anchor queues and all must eventually complete.
func TestAdmissionSerialises(t *testing.T) {
	cfg := hm.HM4(2, 2) // 4 cores, 2 L2s
	c2 := cfg.Levels[1].Capacity
	m := hm.MustMachine(cfg)
	s := NewSim(m)
	const k = 8
	v := s.NewI64(k)
	s.Run(c2*2, func(c *Ctx) {
		var tasks []Task
		for i := 0; i < k; i++ {
			i := i
			tasks = append(tasks, Task{Space: c2, Fn: func(cc *Ctx) {
				cc.StoreI(v.Base+Addr(i), int64(i)+100)
			}})
		}
		c.SpawnSB(tasks...)
	})
	for i := 0; i < k; i++ {
		if got := s.PeekI(v, i); got != int64(i)+100 {
			t.Errorf("task %d never ran: v[%d] = %d", i, i, got)
		}
	}
	if got := s.PlacedAt(2); got != k {
		t.Errorf("PlacedAt(2) = %d, want %d (every task anchored at an L2)", got, k)
	}
}

// TestAdmissionSerialisesUnderPressureCompletes is the same discipline
// driven harder: tasks fork recursively while holding reservations, so
// admits happen from finish paths deep in the round loop.
func TestAdmissionSerialisesUnderPressureCompletes(t *testing.T) {
	cfg := hm.HM4(2, 2)
	c2 := cfg.Levels[1].Capacity
	m := hm.MustMachine(cfg)
	s := NewSim(m)
	total := 0
	s.Run(c2*4, func(c *Ctx) {
		var tasks []Task
		for i := 0; i < 6; i++ {
			tasks = append(tasks, Task{Space: c2, Fn: func(cc *Ctx) {
				cc.SpawnSB(
					Task{Space: c2 / 4, Fn: func(c2x *Ctx) { c2x.Tick(10) }},
					Task{Space: c2 / 4, Fn: func(c2x *Ctx) { c2x.Tick(10) }},
				)
				total++ // strands run one at a time; no data race
			}})
		}
		c.SpawnSB(tasks...)
	})
	if total != 6 {
		t.Fatalf("completed %d of 6 reservation-holding tasks", total)
	}
}

// TestOversizeTaskStillAdmitted pins the escape hatch that keeps the
// discipline deadlock-free: a task bigger than its anchor cache is admitted
// anyway once the cache is otherwise empty (slot.anchd == 0), rather than
// waiting forever for space that cannot exist.
func TestOversizeTaskStillAdmitted(t *testing.T) {
	cfg := hm.HM4(2, 2)
	c1 := cfg.Levels[0].Capacity
	m := hm.MustMachine(cfg)
	s := NewSim(m, WithFlatScheduler()) // flat: everything anchors at an L1
	ran := false
	s.Run(1<<16, func(c *Ctx) {
		c.SpawnSB(Task{Space: c1 * 2, Fn: func(cc *Ctx) { ran = true }})
	})
	if !ran {
		t.Fatal("oversize task never admitted")
	}
}

// stuckRun wedges the engine on purpose: an over-admission state — a
// phantom reservation filling an L1 with a task queued behind it whose
// holder never finishes — that the backstop must diagnose.  The public
// scheduling discipline is deadlock-free by construction (the nested
// fallback and the oversize escape hatch above), so the detector guards
// against engine bugs; the test fabricates the stuck state directly.
func stuckRun(s *Session, m *hm.Machine) (RunStats, error) {
	return s.TryRun(1<<12, func(c *Ctx) {
		e := s.eng
		slot := e.slotOf(m.CacheOf(0, 1))
		slot.used = slot.cache.Cap * slot.cache.Block // phantom reservation
		slot.anchd = 1
		jn := e.newJoin(c.st)
		e.forkAt(slot, pending{space: 1, jn: jn, fn: func(*Ctx) {}, label: "starveling"})
		c.waitJoin(jn) // parks behind a task that can never be admitted
	})
}

// TestDeadlockForensics trips the backstop and asserts the structured
// report diagnoses the wedge: the starved cache slot is named with its
// occupancy and the queued task's space demand, and the parked root strand
// appears with its anchor.
func TestDeadlockForensics(t *testing.T) {
	m := hm.MustMachine(hm.HM4(2, 2))
	s := NewSim(m)
	_, err := stuckRun(s, m)
	if err == nil {
		t.Fatal("stuck configuration did not fail")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("stuck configuration returned %T (%v), want *DeadlockError", err, err)
	}
	r := de.Report
	if r.Live != 1 || r.Queued != 1 || r.Runnable != 0 {
		t.Errorf("report counts = live %d, runnable %d, queued %d; want 1, 0, 1", r.Live, r.Runnable, r.Queued)
	}
	if got := r.Starved(); len(got) != 1 || got[0] != "L1[0]" {
		t.Errorf("Starved() = %v, want [L1[0]]", got)
	}
	var starved *SlotState
	for i := range r.Slots {
		if r.Slots[i].Name() == "L1[0]" {
			starved = &r.Slots[i]
		}
	}
	if starved == nil {
		t.Fatalf("report slots %v do not include the starved L1[0]", r.Slots)
	}
	if starved.Queued != 1 || len(starved.Demands) != 1 || starved.Demands[0] != 1 {
		t.Errorf("starved slot = %+v, want 1 queued task with space demand 1", *starved)
	}
	if starved.Used != starved.Capacity || starved.Anchored != 1 {
		t.Errorf("starved slot occupancy = %d/%d with %d anchored, want full with 1 anchored",
			starved.Used, starved.Capacity, starved.Anchored)
	}
	if len(r.Blocked) != 1 || r.Blocked[0].Label != "root" || r.Blocked[0].AnchorLevel != 2 {
		t.Errorf("blocked strands = %+v, want the root strand parked at its L2 anchor", r.Blocked)
	}
	for _, frag := range []string{"L1[0]", "used 512/512", "pending space demands: [1]", `task "root"`, "starved: L1[0]"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("rendered report missing %q:\n%s", frag, err.Error())
		}
	}
}

// TestDeadlockStillPanicsThroughRun pins the historical contract: callers
// using Run (not TryRun) still get a panic, now carrying the forensics.
func TestDeadlockStillPanicsThroughRun(t *testing.T) {
	m := hm.MustMachine(hm.HM4(2, 2))
	s := NewSim(m)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stuck configuration did not panic through Run")
		}
		if _, ok := r.(*DeadlockError); !ok {
			t.Fatalf("Run panicked with %T, want *DeadlockError", r)
		}
		if !strings.Contains(fmt.Sprint(r), "starved: L1[0]") {
			t.Errorf("panic value does not name the starved slot: %v", r)
		}
	}()
	s.Run(1<<12, func(c *Ctx) {
		e := s.eng
		slot := e.slotOf(m.CacheOf(0, 1))
		slot.used = slot.cache.Cap * slot.cache.Block
		slot.anchd = 1
		jn := e.newJoin(c.st)
		e.forkAt(slot, pending{space: 1, jn: jn, fn: func(*Ctx) {}})
		c.waitJoin(jn)
	})
}
