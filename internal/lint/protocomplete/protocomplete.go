// Package protocomplete cross-checks the wire-message registry of a
// codec package like internal/proto. Adding a message kind to rpcv
// requires wiring it in four places simultaneously:
//
//  1. a wire kind-byte constant named kind<Type> (binary.go),
//  2. a case in the kindOf type switch (encode dispatch),
//  3. a case in the appendMessageBody type switch (the encoder),
//  4. a case in the readMessageBody kind switch (the decoder).
//
// Missing any one of them compiles fine and fails at runtime — as a
// panic at send or a decode error on a live connection. This analyzer
// turns each missing arm into a lint failure at the message type's
// declaration.
//
// The analyzer engages on any package that declares both an interface
// named Message (with a Kind method) and a function named kindOf; all
// other packages are ignored. Every named type in the package whose
// pointer implements Message is treated as a registered message kind.
//
// WireSize needs no arm here: it is a method of the Message interface
// itself, so the compiler already rejects a message without one, and
// proto's TestWireSizeMatchesCodec pins the hint's accuracy against
// the actual marshalled length.
package protocomplete

import (
	"go/ast"
	"go/types"

	"rpcv/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "protocomplete",
	Doc:  "check that every proto message kind is wired into kindOf and the binary encoder and decoder",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	scope := pass.Pkg.Scope()

	msgIface := messageInterface(scope)
	if msgIface == nil {
		return nil
	}
	var kindOfDecl, appendDecl, readDecl *ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			switch fd.Name.Name {
			case "kindOf":
				kindOfDecl = fd
			case "appendMessageBody":
				appendDecl = fd
			case "readMessageBody":
				readDecl = fd
			}
		}
	}
	if kindOfDecl == nil {
		return nil // not a codec package
	}

	kindOfCases := typeSwitchCases(pass, kindOfDecl)
	appendCases := typeSwitchCases(pass, appendDecl)
	readCases := kindSwitchCases(pass, readDecl)

	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if !types.Implements(types.NewPointer(named), msgIface) {
			continue
		}
		pos := tn.Pos()
		kindConst := "kind" + name
		if scope.Lookup(kindConst) == nil {
			pass.Reportf(pos, "message %s has no wire kind constant %s; add it to the kind byte list (append only, never renumber)", name, kindConst)
		}
		if !kindOfCases[tn] {
			pass.Reportf(pos, "message %s missing from the kindOf type switch: it will encode as kindInvalid and panic at send", name)
		}
		if appendDecl != nil && !appendCases[tn] {
			pass.Reportf(pos, "message %s missing from appendMessageBody: the binary encoder cannot marshal it", name)
		}
		if readDecl != nil && !readCases[kindConst] {
			pass.Reportf(pos, "message %s missing from readMessageBody: peers decoding %s will fail with a corrupt-frame error", name, kindConst)
		}
	}
	return nil
}

// messageInterface finds the package's Message interface, requiring a
// Kind() method so an unrelated type named Message cannot engage the
// analyzer.
func messageInterface(scope *types.Scope) *types.Interface {
	tn, ok := scope.Lookup("Message").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Kind" {
			return iface
		}
	}
	return nil
}

// typeSwitchCases collects the named types appearing as *T cases in
// the first type switch of fn's body.
func typeSwitchCases(pass *analysis.Pass, fn *ast.FuncDecl) map[*types.TypeName]bool {
	cases := make(map[*types.TypeName]bool)
	if fn == nil || fn.Body == nil {
		return cases
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, clause := range ts.Body.List {
			cc := clause.(*ast.CaseClause)
			for _, expr := range cc.List {
				t := pass.TypesInfo.TypeOf(expr)
				if t == nil {
					continue
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					cases[named.Obj()] = true
				}
			}
		}
		return false
	})
	return cases
}

// kindSwitchCases collects the names of kind constants appearing as
// switch cases anywhere in fn's body.
func kindSwitchCases(pass *analysis.Pass, fn *ast.FuncDecl) map[string]bool {
	cases := make(map[string]bool)
	if fn == nil || fn.Body == nil {
		return cases
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, expr := range cc.List {
			if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
				if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
					cases[c.Name()] = true
				}
			}
		}
		return true
	})
	return cases
}
