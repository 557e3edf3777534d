// Package loader turns Go packages into the typed syntax trees the
// lint analyzers consume. Its one entry point, Load, shells out to
// `go list -test -deps -export` over package patterns, so the go
// command resolves the build (module mode, build tags, compiled export
// data in the build cache) and this process only parses and
// type-checks the target packages themselves. A package with tests is
// checked as its test variant — its own files and its _test.go files
// together — and its external _test package beside it, so test code is
// linted in the same run as everything else.
//
// Dependencies are imported from compiler export data via the standard
// library's gc importer — never type-checked from source — which keeps
// a whole-tree lint run to a few seconds of type-checking.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"rpcv/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	// ImportMap maps the import paths of the package's source to the
	// variants it was compiled against: a test's recompiled
	// dependencies, "p [p.test]" for "p".
	ImportMap map[string]string
	// ForTest names the package whose test build this variant belongs
	// to: set on "p [p.test]" and on "p_test [p.test]".
	ForTest string
	DepOnly bool
	Error   *struct{ Err string }
}

// Load lists patterns in dir (module root) and returns the type-checked
// program of every matched package and of its tests.
func Load(dir string, patterns []string) (*analysis.Program, error) {
	args := append([]string{
		"list", "-test", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,ImportMap,ForTest,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listPackage
	tested := make(map[string]bool) // packages checked as their test variant
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // dependencies, and the synthesized test mains
		}
		if strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
			tested[p.ForTest] = true
		}
		targets = append(targets, &p)
	}

	fset := token.NewFileSet()
	var pkgs []*analysis.Package
	for _, t := range targets {
		if tested[t.ImportPath] {
			continue // its test variant holds the same files and more
		}
		pkg, err := check(fset, t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return analysis.NewProgram(pkgs), nil
}

// check parses and type-checks one listed package against the export
// data of its dependencies. A test variant is checked under its plain
// path ("p", not "p [p.test]"), so its functions keep the names every
// other package calls them by.
func check(fset *token.FileSet, p *listPackage, exports map[string]string) (*analysis.Package, error) {
	pkgPath, _, _ := strings.Cut(p.ImportPath, " ")
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return &analysis.Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
