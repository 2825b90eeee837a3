package core

import (
	"fmt"
	"sort"
	"strings"
)

// Scheduler tracing: with WithTrace, a simulated session records one event
// per scheduling decision — task anchorings (SB / CGC⇒SB), CGC chunk
// assignments, nested spawns, queue insertions in Q(λ), steals and
// completions — stamped with virtual time.  The trace renders as a summary
// (decisions per kind and cache level) or as a per-core text timeline,
// which is how the scheduler's behaviour in the EXPERIMENTS ablations was
// inspected.

// EventKind classifies a trace event.
type EventKind string

const (
	EvAnchor EventKind = "anchor" // task anchored at a cache (reserved space)
	EvChunk  EventKind = "chunk"  // CGC segment assigned to a core
	EvNested EventKind = "nested" // task run nested at its parent's cache
	EvQueue  EventKind = "queue"  // task enqueued in Q(λ) awaiting space
	EvSteal  EventKind = "steal"  // strand migrated by the stealing extension
	EvDone   EventKind = "done"   // strand completed

	// Failure-injection events (failures.go).
	EvCoreFail EventKind = "corefail" // fail-stop core death
	EvFault    EventKind = "fault"    // transient cache fault (level/cache, space = blocks dropped)
	EvMigrate  EventKind = "migrate"  // unstarted strand moved off a dead core
	EvReexec   EventKind = "reexec"   // killed in-flight strand re-executed on a survivor
)

// TraceEvent is one scheduling decision.
type TraceEvent struct {
	Time  int64
	Kind  EventKind
	Core  int
	Level int // cache level of the anchor (0 when not applicable)
	Cache int // cache index within the level
	Space int64
}

// Trace collects events for one or more runs on a session.
type Trace struct {
	Events []TraceEvent
}

// WithTrace attaches tr to a simulated session.
func WithTrace(tr *Trace) Opt {
	return func(s *Session) { s.eng.trace = tr }
}

func (e *engine) emit(kind EventKind, core, level, cache int, space int64) {
	if e.trace == nil {
		return
	}
	e.trace.Events = append(e.trace.Events, TraceEvent{
		Time: e.clock, Kind: kind, Core: core, Level: level, Cache: cache, Space: space,
	})
}

// Reset clears the recorded events.
func (t *Trace) Reset() { t.Events = t.Events[:0] }

// Summary renders decision counts per kind and, for anchors, per cache
// level.
func (t *Trace) Summary() string {
	kinds := map[EventKind]int{}
	anchorsPerLevel := map[int]int{}
	for _, e := range t.Events {
		kinds[e.Kind]++
		if e.Kind == EvAnchor {
			anchorsPerLevel[e.Level]++
		}
	}
	var b strings.Builder
	b.WriteString("scheduler trace summary:\n")
	var ks []string
	//oblivcheck:allow determinism: key collection — rendered order comes from the sort below
	for k := range kinds {
		ks = append(ks, string(k))
	}
	sort.Strings(ks)
	for _, k := range ks {
		fmt.Fprintf(&b, "  %-7s %d\n", k, kinds[EventKind(k)])
	}
	var lvls []int
	//oblivcheck:allow determinism: key collection — rendered order comes from the sort below
	for l := range anchorsPerLevel {
		lvls = append(lvls, l)
	}
	sort.Ints(lvls)
	for _, l := range lvls {
		fmt.Fprintf(&b, "  anchors at L%d: %d\n", l, anchorsPerLevel[l])
	}
	return b.String()
}

// Timeline renders a coarse per-core activity strip: one row per core,
// width buckets across the observed time span, with a mark in every bucket
// where the core received work ('#') or completed a strand ('.').
func (t *Trace) Timeline(cores, width int) string {
	if len(t.Events) == 0 || width <= 0 {
		return "(empty trace)\n"
	}
	maxT := int64(1)
	for _, e := range t.Events {
		if e.Time > maxT {
			maxT = e.Time
		}
	}
	grid := make([][]byte, cores)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, e := range t.Events {
		if e.Core < 0 || e.Core >= cores {
			continue
		}
		bkt := int(e.Time * int64(width-1) / maxT)
		switch e.Kind {
		case EvChunk, EvAnchor, EvNested, EvSteal:
			grid[e.Core][bkt] = '#'
		case EvDone:
			if grid[e.Core][bkt] == ' ' {
				grid[e.Core][bkt] = '.'
			}
		}
	}
	var b strings.Builder
	for i, row := range grid {
		fmt.Fprintf(&b, "core %2d |%s|\n", i, row)
	}
	return b.String()
}
