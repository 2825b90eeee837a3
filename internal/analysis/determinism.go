package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the engine's frozen determinism contract on every
// non-test package under oblivhm/internal/: the golden-metrics snapshots,
// the chaos same-seed reproducibility tests and the reference-engine
// equivalence tests all assume that a run is a pure function of (machine,
// workload, seed). The analyzer rejects the constructs that break that:
//
//   - wall-clock reads (time.Now, Since, Sleep, timers, tickers),
//   - the unseeded global math/rand source (package-level rand.Intn etc.;
//     an explicitly seeded rand.New(rand.NewSource(k)) stream is fine and
//     is the harness convention),
//   - iteration over a map (order is randomized per run by the runtime),
//     directly or through the maps.Keys, maps.Values and maps.All
//     iterators, unless the iterator goes straight into slices.Sorted or
//     slices.SortedFunc,
//   - sync.Map (iteration order and interleaving are unspecified),
//   - go statements outside the sanctioned sites, each of which carries an
//     //oblivcheck:allow annotation: the native-mode executor's one, in
//     the fork that starts every native child, the sweep worker pool's,
//     and the hm walker's, which applies a run's cache records in issue
//     order, so no count depends on goroutine interleaving.  Strands are
//     runtime coroutines resumed by the engine, not goroutines it
//     launches.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "engine and algorithm code must stay deterministic: no wall clock, unseeded rand, map order, sync.Map, or unsanctioned goroutines",
	Run:  runDeterminism,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the wall clock or a runtime timer.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// mapIterFuncs are the maps package functions that iterate a map in its
// randomized order.
var mapIterFuncs = map[string]bool{"Keys": true, "Values": true, "All": true}

// seededRandFuncs are the math/rand package-level functions that construct
// explicit generators rather than drawing from the global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	if !enginePackage(pass.Path) {
		return
	}
	eachSourceFile(pass, func(f *ast.File) {
		// sorted holds the map iterator calls passed straight to
		// slices.Sorted or slices.SortedFunc; Inspect visits a call before
		// its arguments, so the mark is in place when the iterator is met.
		sorted := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n, sorted)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside the sanctioned native entry points: engine scheduling must not depend on runtime goroutine interleaving")
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"iteration over a map: order is randomized per run; iterate a sorted key slice or annotate an order-independent loop")
					}
				}
			case *ast.SelectorExpr:
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.IsType() && namedFrom(tv.Type, "sync", "Map") {
					pass.Reportf(n.Pos(),
						"sync.Map use: iteration order and interleaving are unspecified; use a plain map behind the engine's round structure")
				}
			}
			return true
		})
	})
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr, sorted map[*ast.CallExpr]bool) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on explicit *rand.Rand /
	// *time.Timer values are reached through a flagged constructor anyway.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock: runs must be pure functions of (machine, workload, seed)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global unseeded source: thread an explicit rand.New(rand.NewSource(seed)) stream instead (see internal/core/chaos.go for the engine-side convention)", fn.Pkg().Name(), fn.Name())
		}
	case "slices":
		if fn.Name() == "Sorted" || fn.Name() == "SortedFunc" {
			if arg, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				sorted[arg] = true
			}
		}
	case "maps":
		if mapIterFuncs[fn.Name()] && !sorted[call] {
			pass.Reportf(call.Pos(),
				"maps.%s iterates a map: order is randomized per run; pass it straight to slices.Sorted or slices.SortedFunc", fn.Name())
		}
	}
}
