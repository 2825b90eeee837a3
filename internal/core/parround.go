package core

// WithParallelRounds named the removed parallel-rounds backend (DESIGN.md
// §11), which ran the front strands of several cores on OS threads and
// replayed their rounds in serial order.  The engine is single-threaded
// again; the option is kept so existing callers still build.
//
// Deprecated: a no-op.  For host parallelism run independent
// configurations side by side with cmd/sweep -workers.
func WithParallelRounds(workers int) Opt { return func(*Session) {} }
