// Package diskerr reports discarded errors from durable-storage calls.
//
// rpcv's correctness story leans on node.Disk's contract: Write and
// Delete are durable when they return, and their errors are the only
// signal that durability failed. PR 4 hand-fixed a round of silently
// dropped Disk.Delete errors; this analyzer makes the class
// unrepresentable. A call is flagged when its result tuple contains an
// error, the callee belongs to the storage surface, and the statement
// discards the results — a bare expression statement, or a go/defer.
//
// The storage surface is recognized structurally, not by import path:
// any method on a receiver whose method set contains the Disk quartet
// (Write, Read, Delete, Keys) — which covers node.Disk, node.BatchDisk,
// store.Store, every engine, and test fakes — plus any function
// returning such a type alongside an error (store.OpenWAL, ...).
//
// An explicit blank assignment (`_ = d.Write(...)`) is the documented
// opt-out: it states the discard is deliberate, survives review, and
// should carry a comment saying why.
//
// The staged calls, WriteAsync and DeleteAsync, return nothing: their
// error arrives through the done callback, and dropping it there is the
// same bug — a lost write, or a store that is not shrinking. One on a
// disk-shaped receiver, or through a function of that name whose first
// parameter is disk-shaped (node.WriteAsync, node.DeleteAsync), is
// flagged when done is nil or a func literal that never reads its error
// parameter. A callback passed by name is trusted (its body is checked
// where it is written, if it is a literal). Packages store and rt are
// exempt: engines and the loop adapter forward a caller's done, nil
// included, and their tests stage fire-and-forget fillers.
package diskerr

import (
	"go/ast"
	"go/types"

	"rpcv/internal/lint/analysis"
	"rpcv/internal/lint/astutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "diskerr",
	Doc:  "report discarded errors from node.Disk / store engine calls",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	checkAsync := !forwardsDone(pass.Pkg)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && checkAsync {
				checkStaged(pass, call)
			}
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = stmt.Call
			case *ast.DeferStmt:
				call = stmt.Call
			}
			if call == nil {
				return true
			}
			callee := astutil.Callee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok || !returnsError(sig) {
				return true
			}
			if !storageCallee(callee, sig) {
				return true
			}
			what := callee.Name()
			if recv := astutil.ReceiverTypeName(callee); recv != "" {
				what = recv + "." + what
			}
			pass.Reportf(call.Pos(),
				"error returned by %s is discarded: a failed durable operation must be handled (or explicitly ignored with `_ =` and a reason)",
				what)
			return true
		})
	}
	return nil
}

// forwardsDone reports whether pkg is one of the two layers that pass a
// caller's done callback through (or is their external test package).
func forwardsDone(pkg *types.Package) bool {
	for _, name := range [...]string{"store", "rt", "store_test", "rt_test"} {
		if astutil.PkgPathIs(pkg, name) {
			return true
		}
	}
	return false
}

// checkStaged flags a WriteAsync or DeleteAsync whose completion error
// cannot reach anyone.
func checkStaged(pass *analysis.Pass, call *ast.CallExpr) {
	callee := astutil.Callee(pass.TypesInfo, call)
	if callee == nil || len(call.Args) == 0 {
		return
	}
	op := map[string]string{"WriteAsync": "write", "DeleteAsync": "delete"}[callee.Name()]
	if op == "" {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	what := callee.Name()
	switch recv := sig.Recv(); {
	case recv != nil && diskShaped(recv.Type()):
		what = astutil.ReceiverTypeName(callee) + "." + what
	case recv == nil && sig.Params().Len() > 0 && diskShaped(sig.Params().At(0).Type()):
	default:
		return
	}
	switch done := ast.Unparen(call.Args[len(call.Args)-1]).(type) {
	case *ast.Ident:
		if _, isNil := pass.TypesInfo.Uses[done].(*types.Nil); isNil {
			pass.Reportf(call.Pos(),
				"%s with a nil done drops the %s's error: pass a callback that handles it", what, op)
		}
	case *ast.FuncLit:
		if !readsErrorParam(pass.TypesInfo, done) {
			pass.Reportf(call.Pos(),
				"%s's done callback never reads its error: a failed durable %s must be handled", what, op)
		}
	}
}

// readsErrorParam reports whether the literal names an error parameter
// and uses it somewhere in its body.
func readsErrorParam(info *types.Info, lit *ast.FuncLit) bool {
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil || !isErrorType(obj.Type()) {
				continue // unnamed, blank or not the error
			}
			used := false
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if used {
				return true
			}
		}
	}
	return false
}

func returnsError(sig *types.Signature) bool {
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// storageCallee reports whether the call belongs to the durable-store
// surface: a method on a Disk-shaped receiver, or a function whose
// results include a Disk-shaped type (an engine constructor).
func storageCallee(f *types.Func, sig *types.Signature) bool {
	if recv := sig.Recv(); recv != nil {
		return diskShaped(recv.Type())
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if diskShaped(results.At(i).Type()) {
			return true
		}
	}
	return false
}

// diskShaped reports whether t's method set carries the node.Disk
// quartet: Write, Read, Delete and Keys. Structural matching keeps the
// analyzer independent of import paths, so testdata fakes and future
// engines are covered for free.
func diskShaped(t types.Type) bool {
	for _, name := range [...]string{"Write", "Read", "Delete", "Keys"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}
