// Package parfix pins the determinism analyzer's goroutine rule inside the
// engine scope: the real internal/core carries one sanctioned `go` site in
// the engine (the speculative launch in speculate(), which resumes
// speculator coroutines on helper goroutines), annotated with the
// commit-order equivalence argument — and this fixture proves that a NEW,
// unsanctioned `go` statement in internal/core still fails the check, so
// the annotation is a per-site escape hatch, not a package-wide waiver.
package parfix

// strand is a stub of the engine's schedulable unit: a coroutine the engine
// resumes until its next yield.
type strand struct {
	next func() (int, bool)
}

func (st *strand) resume() { st.next() }

// SpeculativeLaunch mirrors the sanctioned site in parround.go: the
// annotation cites the argument that makes the concurrency unobservable.
func SpeculativeLaunch(fronts []*strand) {
	for _, st := range fronts[1:] {
		//oblivcheck:allow determinism: speculative strand launch — pure rounds are replayed by the serial commit walk in (round, core) order, byte-identical to the serial schedule
		go st.resume()
	}
	fronts[0].resume()
}

// UnsanctionedLaunch is the regression the rule exists for: engine code
// spawning a goroutine without an equivalence argument.
func UnsanctionedLaunch(st *strand) {
	go st.resume() // want `go statement outside the sanctioned`
}
