package sweep

import (
	"sync"
	"sync/atomic"

	"oblivhm/internal/harness"
)

// Row is one measured grid cell: the config, its hash, and the metric
// slice of the harness result.  Engine failures (a chaos-provoked typed
// error, a workload that rejects its input size) land in Err instead of
// aborting the sweep, so one bad cell cannot sink a thousand-run grid.
type Row struct {
	Config
	Hash     string                `json:"hash"`
	Steps    int64                 `json:"steps"`
	Work     int64                 `json:"work"`
	Steals   int64                 `json:"steals"`
	PlacedAt []int                 `json:"placedAt,omitempty"`
	Levels   []harness.LevelReport `json:"levels,omitempty"`

	// Degraded-mode columns, populated only when the option set injects
	// failures (failstop1/straggler2x/faulty): cores lost, strands migrated
	// off dead cores, strands re-executed from their spawn closures, and the
	// fraction of executed work that was re-execution.
	DeadCores  int     `json:"deadCores,omitempty"`
	Migrated   int64   `json:"migrated,omitempty"`
	Reexec     int64   `json:"reexec,omitempty"`
	ReexecFrac float64 `json:"reexecFrac,omitempty"`

	Err string `json:"err,omitempty"`
}

// Result reconstructs the harness view of the row, so formatters built on
// harness.MOResult (cmd/tables) render sweep rows identically to direct
// runs.
func (r Row) Result() harness.MOResult {
	return harness.MOResult{
		Algo:     r.Algo,
		Machine:  r.Machine,
		N:        r.N,
		Steps:    r.Steps,
		Work:     r.Work,
		Levels:   r.Levels,
		PlacedAt: r.PlacedAt,
		Steals:   r.Steals,
	}
}

// RunnerOpts tunes one sweep execution.
type RunnerOpts struct {
	// Workers is the fan-out width; <= 1 runs on a single worker.  The
	// emitted row stream is byte-identical for every worker count.
	Workers int
	// Done holds config hashes already present in the output (resume):
	// matching grid cells are skipped, not re-run and not re-emitted.
	Done map[string]bool
	// Progress, when non-nil, is called after every emitted row with the
	// number of emitted and total rows of this invocation.  It runs on the
	// caller's goroutine.
	Progress func(done, total int)
}

// Run expands the validated spec, executes every config not already in
// opts.Done, and hands rows to emit in grid order.  The fan-out is across
// runs: each worker goroutine owns an independent deterministic
// simulation, takes the next cell in grid order and puts its row in that
// cell's one-row slot, and the calling goroutine emits slot by slot, so
// emit (and the JSONLWriter behind it) needs no locking and sees the same byte
// stream whether Workers is 1 or 64.  An emit error stops the workers from
// taking further cells and is returned; Run returns only once every worker
// has exited.
func Run(spec *Spec, opts RunnerOpts, emit func(Row) error) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	todo := Expand(spec)
	if len(opts.Done) > 0 {
		kept := todo[:0]
		for _, c := range todo {
			if !opts.Done[c.Hash()] {
				kept = append(kept, c)
			}
		}
		todo = kept
	}
	slots := make([]chan Row, len(todo))
	for i := range slots {
		slots[i] = make(chan Row, 1)
	}
	var next atomic.Int64 // the next cell to take; len(todo) or more stops the workers
	var wg sync.WaitGroup
	for range min(max(opts.Workers, 1), len(todo)) {
		wg.Add(1)
		//oblivcheck:allow determinism: sweep fan-out is across independent deterministic runs; every row goes to its cell's slot and is emitted in grid order, so the output is a pure function of the spec
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
				slots[i] <- runOne(todo[i])
			}
		}()
	}
	var err error
	for i, slot := range slots {
		if err = emit(<-slot); err != nil {
			next.Store(int64(len(todo)))
			break
		}
		if opts.Progress != nil {
			opts.Progress(i+1, len(todo))
		}
	}
	wg.Wait()
	return err
}

// Collect runs the spec and returns every row in grid order — the
// in-memory entry used by cmd/tables and the hypothesis evaluator.
func Collect(spec *Spec, workers int) ([]Row, error) {
	var rows []Row
	err := Run(spec, RunnerOpts{Workers: workers}, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

// runOne measures a single grid cell through the shared harness entry.
func runOne(c Config) Row {
	row := Row{Config: c, Hash: c.Hash()}
	res, err := harness.Run(c)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Steps = res.Steps
	row.Work = res.Work
	row.Steals = res.Steals
	row.PlacedAt = res.PlacedAt
	row.Levels = res.Levels
	if rec := res.Recovery; rec != nil {
		row.DeadCores = len(rec.DeadCores)
		row.Migrated = int64(rec.MigratedStrands)
		row.Reexec = int64(rec.ReexecStrands)
		row.ReexecFrac = rec.ReexecWorkFraction()
	}
	return row
}
