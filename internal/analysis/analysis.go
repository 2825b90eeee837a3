// Package analysis is a small, stdlib-only static-analysis framework plus
// the five oblivcheck analyzers that enforce this repository's paper
// invariants at compile time:
//
//   - oblivious: algorithm packages never see machine parameters
//     (no internal/hm import, no Session.Machine(), no World.P / World.B),
//   - determinism: engine/algorithm code draws no wall-clock time, no
//     unseeded randomness, no map-iteration order, no sync.Map, and spawns
//     no goroutines outside the sanctioned native entry points,
//   - hinthygiene: every forked Task carries a non-constant space bound and
//     every engine-side join is waited on all control paths,
//   - dataoblivious: packages opting in with //oblivcheck:dataoblivious
//     make no secret-dependent branches, indices, slice bounds, addresses,
//     PFor trip counts or Space hints (//oblivcheck:secret tags name the secret
//     parameters; the trace-equality harness is the runtime cross-check),
//   - specsafe: scheduler-state reads reachable from speculative strand
//     context inside internal/core are dominated by c.serialize() or
//     guarded by st.spec (DESIGN.md §11).
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate to the real framework if the
// dependency ever becomes available; the repo itself is dependency-free, so
// the driver in cmd/oblivcheck speaks cmd/go's vettool JSON protocol
// directly using only go/types and go/importer.
//
// # Escape hatch
//
// A finding is suppressed by an explicit annotation naming the analyzer and
// a reason, either on the flagged line or on the line directly above it:
//
//	//oblivcheck:allow determinism: native executor, joined before return
//	go run(x)
//
// Annotations without a reason are themselves reported, so every exemption
// is documented in place.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single package and reports
// findings through the pass.
type Analyzer struct {
	Name string // short lowercase identifier, used in annotations
	Doc  string // one-line description
	Run  func(*Pass)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the logical import path: the vet variant suffix
	// ("pkg [pkg.test]") is stripped by the driver.
	Path string

	diags  *[]Diagnostic
	allows map[string]map[int][]*allowAnn // filename -> line -> annotations
}

// allowAnn is one //oblivcheck:allow annotation; used tracks whether it
// actually suppressed a finding, so stale exemptions are reported instead
// of rotting in place.
type allowAnn struct {
	name string // analyzer the annotation names
	pos  token.Pos
	used bool
}

// Reportf records a finding unless an //oblivcheck:allow annotation for
// this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allowedAt(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Analyzers is the full oblivcheck suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Oblivious, Determinism, HintHygiene, DataOblivious, SpecSafe}
}

// Run applies every analyzer in suite to one type-checked package and
// returns the findings sorted by position.
func Run(suite []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, path string) []Diagnostic {
	var diags []Diagnostic
	allows, allAnns := collectAllows(fset, files, &diags)
	for _, a := range suite {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Path:      path,
			diags:     &diags,
			allows:    allows,
		}
		a.Run(pass)
	}
	reportUnusedAllows(suite, allAnns, &diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// reportUnusedAllows flags annotations that suppressed nothing: the finding
// they once excused is gone, so the exemption (and its reason) is stale.
// Only annotations naming an analyzer in the running suite are judged — a
// single-analyzer run cannot tell whether another analyzer's allow is live.
func reportUnusedAllows(suite []*Analyzer, allAnns []*allowAnn, diags *[]Diagnostic) {
	inSuite := make(map[string]bool, len(suite))
	for _, a := range suite {
		inSuite[a.Name] = true
	}
	for _, ann := range allAnns {
		if inSuite[ann.name] && !ann.used {
			*diags = append(*diags, Diagnostic{
				Pos:      ann.pos,
				Message:  fmt.Sprintf("unused //oblivcheck:allow %s annotation: no %s finding here to suppress; delete it", ann.name, ann.name),
				Analyzer: "oblivcheck",
			})
		}
	}
}

// ---- annotation handling ----

const allowPrefix = "//oblivcheck:allow"

// collectAllows indexes every //oblivcheck:allow annotation by file and
// line, and returns them again as a flat list in collection order for the
// unused-annotation sweep. Malformed annotations (no analyzer name or no
// reason) are reported immediately so they cannot silently suppress
// anything.
func collectAllows(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) (map[string]map[int][]*allowAnn, []*allowAnn) {
	out := make(map[string]map[int][]*allowAnn)
	var all []*allowAnn
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				rest = strings.TrimSpace(rest)
				name, reason, _ := strings.Cut(rest, ":")
				name = strings.TrimSpace(name)
				if i := strings.IndexByte(name, ' '); i >= 0 {
					// "determinism native executor" form (no colon).
					name, reason = name[:i], name[i+1:]
				}
				if name == "" || strings.TrimSpace(reason) == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed oblivcheck annotation: want //oblivcheck:allow <analyzer>: <reason>",
						Analyzer: "oblivcheck",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int][]*allowAnn)
					out[pos.Filename] = m
				}
				ann := &allowAnn{name: name, pos: c.Pos()}
				m[pos.Line] = append(m[pos.Line], ann)
				all = append(all, ann)
			}
		}
	}
	return out, all
}

// allowedAt reports whether an annotation naming this analyzer sits on the
// diagnostic's line or on the line directly above it.
func (p *Pass) allowedAt(pos token.Pos) bool {
	where := p.Fset.Position(pos)
	m := p.allows[where.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{where.Line, where.Line - 1} {
		for _, ann := range m[line] {
			if ann.name == p.Analyzer.Name {
				ann.used = true
				return true
			}
		}
	}
	return false
}

// ---- shared scope helpers ----

// modulePrefix scopes the analyzers to this module's own packages; standard
// library and vendored units handed to the vettool are ignored.
const modulePrefix = "oblivhm/"

// LogicalPath strips cmd/go's vet variant decoration
// ("pkg [pkg.test]" -> "pkg").
func LogicalPath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// enginePackage reports whether path is non-test engine/algorithm code this
// suite polices: everything under oblivhm/internal/. Synthesized test-main
// packages ("pkg.test") are skipped.
func enginePackage(path string) bool {
	return strings.HasPrefix(path, modulePrefix+"internal/") && !strings.HasSuffix(path, ".test")
}

// modulePackage reports whether path belongs to this module at all
// (internal, cmd, examples), again skipping synthesized test mains.
func modulePackage(path string) bool {
	return strings.HasPrefix(path, modulePrefix) && !strings.HasSuffix(path, ".test")
}

// algorithmPackages are the packages holding MO/NO algorithm code: the
// paper's obliviousness boundary. Keys are the path segment under
// oblivhm/internal/.
var algorithmPackages = map[string]bool{
	"fft":       true,
	"gep":       true,
	"scan":      true,
	"spms":      true,
	"spmdv":     true,
	"transpose": true,
	"listrank":  true,
	"graph":     true,
	"bitint":    true,
	"noalgo":    true,
	"nogep":     true,
}

// networkPackages are the network-oblivious algorithm packages, which
// additionally may not read the machine's p or B.
var networkPackages = map[string]bool{
	"noalgo": true,
	"nogep":  true,
}

func algorithmPackage(path string) bool {
	return algorithmPackages[strings.TrimPrefix(path, modulePrefix+"internal/")]
}

func networkPackage(path string) bool {
	return networkPackages[strings.TrimPrefix(path, modulePrefix+"internal/")]
}

// isTestFile reports whether pos sits in a _test.go file; the invariants
// bind shipped code only, tests may reach machine state freely.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// eachSourceFile visits the non-test files of the pass.
func eachSourceFile(p *Pass, fn func(f *ast.File)) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		fn(f)
	}
}

// namedFrom reports whether t (after unwrapping pointers) is the named type
// pkgSuffix.name, matching the package by import-path suffix so testdata
// fixtures exercise the same code path as the real tree.
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// funcObj resolves the called function/method object of a call, if any.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
