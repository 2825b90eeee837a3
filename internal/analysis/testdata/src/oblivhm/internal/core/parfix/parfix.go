// Package parfix pins the determinism analyzer's goroutine rule inside the
// engine scope: the real internal/core runs strands as coroutines and
// launches goroutines only from the annotated native executor, and this
// fixture proves that a `go` statement in internal/core without such an
// annotation fails the check.
package parfix

// strand is a stub of the engine's schedulable unit: a coroutine the engine
// resumes until its next yield.
type strand struct {
	next func() (int, bool)
}

func (st *strand) resume() { st.next() }

// UnsanctionedLaunch is the regression the rule exists for: engine code
// spawning a goroutine without an equivalence argument.
func UnsanctionedLaunch(st *strand) {
	go st.resume() // want `go statement outside the sanctioned`
}
