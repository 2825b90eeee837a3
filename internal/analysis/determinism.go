package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the engine's frozen determinism contract on every
// non-test package under oblivhm/internal/: the golden-metrics snapshots,
// the chaos same-seed reproducibility tests, and the parallel-rounds
// equivalence proofs all assume that a run is a pure function of (machine,
// workload, seed). The analyzer rejects the constructs that break that:
//
//   - wall-clock reads (time.Now, Since, Sleep, timers, tickers),
//   - the unseeded global math/rand source (package-level rand.Intn etc.;
//     an explicitly seeded rand.New(rand.NewSource(k)) stream is fine and
//     is the harness convention),
//   - iteration over a map (order is randomized per run by the runtime),
//   - sync.Map (iteration order and interleaving are unspecified),
//   - go statements outside the sanctioned entry points — the native-mode
//     executor, the strand coroutine and the parallel-rounds speculator
//     launch, which carry //oblivcheck:allow annotations citing their
//     equivalence proofs.
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
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
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

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
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
	}
}
