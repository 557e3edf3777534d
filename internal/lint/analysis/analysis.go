// Package analysis is a self-contained reimplementation of the slice
// of golang.org/x/tools/go/analysis that rpcv's analyzers need. The
// build environment is hermetic (no module proxy), so the canonical
// framework cannot be vendored; this package keeps the same shape —
// Analyzer, Pass, Diagnostic — so the analyzers in internal/lint/...
// port to the upstream API by changing one import path.
//
// Deviations from upstream, both deliberate:
//
//   - There is no Facts mechanism. Cross-package analysis is served by
//     Pass.Program instead: cmd/rpcv-lint loads every requested
//     package up front and exposes their typed syntax, so an analyzer
//     can follow a call out of the current package and keep walking.
//   - Analyzers run independently; there is no Requires DAG and no
//     shared ResultOf. None of rpcv's analyzers need either.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. By
	// convention it is a single lowercase word.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// Program exposes every package the driver loaded (always
	// including this pass's own). Whole-program analyzers use it to
	// chase calls across package boundaries.
	Program *Program
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Program is the set of packages a driver loaded for one run. Packages
// are type-checked independently against export data, so *types.Object
// identities do not carry across members; cross-package lookups key on
// the stable types.Func.FullName string instead.
type Program struct {
	Packages []*Package

	funcIndex map[string]*FuncSource
}

// FuncSource locates one function declaration's typed syntax.
type FuncSource struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// NewProgram assembles a Program and builds its function index.
func NewProgram(pkgs []*Package) *Program {
	pr := &Program{Packages: pkgs, funcIndex: make(map[string]*FuncSource)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pr.funcIndex[obj.FullName()] = &FuncSource{Pkg: pkg, Decl: fd}
			}
		}
	}
	return pr
}

// FuncSource returns the declaration of the named function, or nil if
// it was not among the loaded packages (or has no body, e.g. assembly
// stubs). The key is types.Func.FullName(): "path/pkg.Func",
// "(path/pkg.T).Method" or "(*path/pkg.T).Method".
func (pr *Program) FuncSource(fullName string) *FuncSource {
	return pr.funcIndex[fullName]
}
