//go:debug gotypesalias=1

// Command oblivcheck is the repository's vettool: it runs the four
// static analyzers of internal/analysis (oblivious, determinism,
// hinthygiene, dataoblivious) over every package, enforcing the paper's
// obliviousness boundary, the engine's determinism contract, the join
// discipline and the data-obliviousness of annotated kernels at vet time.
//
// It speaks cmd/go's vettool protocol directly — the same JSON unit-config
// exchange golang.org/x/tools' unitchecker implements — using only the
// standard library, so the repo stays dependency-free:
//
//	go build -o bin/oblivcheck ./cmd/oblivcheck
//	go vet -vettool=$(pwd)/bin/oblivcheck ./...
//
// For each package unit, cmd/go hands the tool a *.cfg file naming the
// Go sources and the export-data files of every dependency; the tool
// type-checks the unit via go/importer, runs the analyzers, prints
// findings as file:line:col diagnostics, and exits 2 if any survive the
// //oblivcheck:allow annotations.  It sees an alias such as
// core.Addr = hm.Addr as a *types.Alias, the go/types default from go 1.23
// on, whatever go version the module declares (the go:debug line above).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"oblivhm/internal/analysis"
)

// vetConfig mirrors the JSON unit description cmd/go writes for vettools
// (cmd/go/internal/work.vetConfig); unknown fields are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// Flag discovery: the suite takes no flags of its own.
		fmt.Println("[]")
		return
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "usage: oblivcheck unit.cfg\n\n"+
			"oblivcheck is a vettool; run it through the go command:\n"+
			"  go vet -vettool=$(pwd)/bin/oblivcheck ./...\n")
		os.Exit(1)
	}
	os.Exit(checkUnit(args[0]))
}

// printVersion answers `oblivcheck -V=full`. cmd/go hashes this line into
// the build cache key, so it must change whenever the analyzers do: embed
// a digest of the executable itself.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("oblivcheck version devel buildID=%x\n", h.Sum(nil)[:12])
}

func checkUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oblivcheck: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "oblivcheck: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The suite exports no facts, so dependency-only units need no work
	// beyond the (empty) facts file cmd/go expects.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "oblivcheck: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	path := analysis.LogicalPath(cfg.ImportPath)
	if !strings.HasPrefix(path, "oblivhm") {
		// Standard library or out-of-module unit: nothing to check, and
		// skipping the type-check keeps `go vet` fast.
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "oblivcheck: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	base := importer.ForCompiler(fset, compiler, func(importPath string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[importPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer:  mapImporter{m: cfg.ImportMap, base: base},
		Sizes:     types.SizesFor(compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
		Error:     func(error) {}, // collect everything, report the first below
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "oblivcheck: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags := analysis.Run(analysis.Analyzers(), fset, files, pkg, info, path)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%v: %s (oblivcheck/%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// mapImporter resolves source-level import paths through the unit's
// ImportMap (vendoring, test variants) before loading export data.
type mapImporter struct {
	m    map[string]string
	base types.Importer
}

func (mi mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.m[path]; ok {
		path = p
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return mi.base.Import(path)
}
