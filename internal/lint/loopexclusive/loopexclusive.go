// Package loopexclusive enforces rpcv's event-loop discipline.
//
// Every node's protocol handler runs on a single event-loop goroutine
// (internal/rt's mailbox, or the simulator's sequential executor), and
// the codebase-wide contract is twofold:
//
//  1. Code that runs on the loop must never block unboundedly. A
//     handler that parks on a channel, sleeps, waits on a WaitGroup or
//     calls back into (*rt.Runtime).Do deadlocks or stalls every
//     message, timer and heartbeat behind it. (Short mutex critical
//     sections and synchronous Disk writes are deliberately allowed:
//     bounded-time by construction, and pessimistic logging's on-loop
//     disk write is the paper's design, not an accident.)
//  2. State owned by the loop must only be touched from the loop. Any
//     other goroutine must marshal access through rt.Do / rt.DoAsync /
//     Env.After.
//
// Both halves are annotation-driven:
//
//   - "//rpcv:loop-only" on a function or method declares it runs on
//     the event loop. The analyzer walks its static call graph (across
//     packages when the driver loaded them) and reports any reachable
//     blocking primitive: time.Sleep, WaitGroup/Cond.Wait, channel
//     sends/receives/range, select without default, raw net dials and
//     conn I/O, os/exec waits, net/http round trips, and the
//     self-deadlocking (*rt.Runtime).Do / Ping / Close.
//   - "//rpcv:loop-owned" on a struct type declares its fields
//     loop-private. Methods of the type are implicitly loop-only, and
//     field accesses elsewhere are only legal inside loop-only
//     functions, inside function literals handed to Do / DoAsync /
//     After, or inside the type's own constructors.
//   - "//rpcv:loop-safe" on a function asserts it was audited by hand
//     (e.g. it only performs bounded non-blocking channel work); the
//     walk stops there without descending.
//   - "//rpcv:blocking" on a named function type declares that its
//     values are code the loop does not control and cannot bound (the
//     server's Service). The static walk cannot see through a function
//     value, so calling one from loop code is itself the finding; such
//     a body belongs in the work closure of Offload.
//
// Function literals are walked inline — a closure built on the loop
// usually runs on the loop — except arguments of `go` statements and
// time.AfterFunc, which are new goroutines by definition, and the work
// closure of Offload (node.Offload, or an Env's own), which runs off the
// loop: it may block, and must not touch loop-owned state. Offload's
// last argument, the completion, is loop code like After's.
package loopexclusive

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"rpcv/internal/lint/analysis"
	"rpcv/internal/lint/astutil"
)

const (
	dirLoopOnly  = "rpcv:loop-only"
	dirLoopSafe  = "rpcv:loop-safe"
	dirLoopOwned = "rpcv:loop-owned"
	dirBlocking  = "rpcv:blocking"
)

var Analyzer = &analysis.Analyzer{
	Name: "loopexclusive",
	Doc:  "report blocking primitives reachable from rpcv:loop-only code and off-loop touches of rpcv:loop-owned state",
	Run:  run,
}

// root is one entry point known to execute on the event loop.
type root struct {
	pkg  *analysis.Package
	fn   ast.Node // *ast.FuncDecl or *ast.FuncLit
	name string   // description for diagnostics
}

type checker struct {
	pass *analysis.Pass
	// ownedTypes: "pkgpath.TypeName" of every rpcv:loop-owned struct in
	// the loaded program.
	ownedTypes map[string]bool
	// blockingTypes: "pkgpath.TypeName" of every rpcv:blocking function
	// type in the loaded program.
	blockingTypes map[string]bool
	// loopSafe: FullNames the walk must not descend into.
	loopSafe map[string]bool
	// loopFuncs: FullNames established to run on the event loop
	// (annotated roots, loop-owned methods and everything reached).
	loopFuncs map[string]bool
	visited   map[string]bool
	reported  map[token.Pos]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:          pass,
		ownedTypes:    make(map[string]bool),
		blockingTypes: make(map[string]bool),
		loopSafe:      make(map[string]bool),
		loopFuncs:     make(map[string]bool),
		visited:       make(map[string]bool),
		reported:      make(map[token.Pos]bool),
	}

	var roots []root
	for _, pkg := range pass.Program.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						key := pkg.Types.Path() + "." + ts.Name.Name
						if astutil.HasDirective(d.Doc, dirLoopOwned) || astutil.HasDirective(ts.Doc, dirLoopOwned) {
							c.ownedTypes[key] = true
						}
						if astutil.HasDirective(d.Doc, dirBlocking) || astutil.HasDirective(ts.Doc, dirBlocking) {
							c.blockingTypes[key] = true
						}
					}
				case *ast.FuncDecl:
					obj, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					if astutil.HasDirective(d.Doc, dirLoopSafe) {
						c.loopSafe[obj.FullName()] = true
						continue
					}
					if astutil.HasDirective(d.Doc, dirLoopOnly) {
						roots = append(roots, root{pkg: pkg, fn: d, name: obj.FullName()})
					}
				}
			}
		}
	}

	// Methods of loop-owned types are implicitly loop-only.
	for _, pkg := range pass.Program.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				if obj == nil || c.loopSafe[obj.FullName()] || astutil.HasDirective(d.Doc, dirLoopOnly) {
					continue
				}
				if c.ownedTypes[pkg.Types.Path()+"."+astutil.ReceiverTypeName(obj)] {
					roots = append(roots, root{pkg: pkg, fn: d, name: obj.FullName()})
				}
			}
		}
	}

	// Function literals handed to Do/DoAsync/After, and Offload's
	// completion, run on the loop no matter where they are built: they
	// are roots too.
	for _, pkg := range pass.Program.Packages {
		for _, file := range pkg.Files {
			p := pkg
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok && marshalsOntoLoop(p.TypesInfo, call, lit) {
						pos := p.Fset.Position(lit.Pos())
						roots = append(roots, root{pkg: p, fn: lit,
							name: fmt.Sprintf("the loop closure at %s:%d", filepath.Base(pos.Filename), pos.Line)})
					}
				}
				return true
			})
		}
	}

	for _, r := range roots {
		c.walkRoot(r)
	}
	c.checkOwnedAccess()
	return nil
}

// edge remembers the last call site in the pass's own package on the
// current walk path, so a violation found in another package can be
// reported where this package handed control away.
type edge struct {
	pos    token.Pos
	callee string
}

// walkRoot walks one loop entry point's transitive static call graph.
func (c *checker) walkRoot(r root) {
	switch fn := r.fn.(type) {
	case *ast.FuncDecl:
		obj, _ := r.pkg.TypesInfo.Defs[fn.Name].(*types.Func)
		if obj == nil {
			return
		}
		c.walkFunc(r.pkg, obj.FullName(), fn.Body, r.name, edge{})
	case *ast.FuncLit:
		c.checkBody(r.pkg, fn.Body, r.name, edge{})
	}
}

func (c *checker) walkFunc(pkg *analysis.Package, fullName string, body *ast.BlockStmt, rootName string, e edge) {
	if c.visited[fullName] {
		return
	}
	c.visited[fullName] = true
	c.loopFuncs[fullName] = true
	if body == nil {
		return
	}
	c.checkBody(pkg, body, rootName, e)
}

// checkBody scans one on-loop body for banned operations and descends
// into static callees whose source the driver loaded.
func (c *checker) checkBody(pkg *analysis.Package, body *ast.BlockStmt, rootName string, e edge) {
	info := pkg.TypesInfo
	var walk func(n ast.Node, stack []ast.Node) bool
	walk = func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// A spawned goroutine leaves the loop.
			return false
		case *ast.FuncLit:
			if offLoopLiteral(info, n, stack) {
				return false
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				c.report(pkg, n.Pos(), "select without a default case blocks the event loop", rootName, e)
			}
		case *ast.SendStmt:
			if !inNonBlockingSelect(n, stack) {
				c.report(pkg, n.Pos(), "channel send blocks the event loop (no select default)", rootName, e)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inNonBlockingSelect(n, stack) {
				c.report(pkg, n.Pos(), "channel receive blocks the event loop (no select default)", rootName, e)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					c.report(pkg, n.Pos(), "ranging over a channel blocks the event loop", rootName, e)
				}
			}
		case *ast.CallExpr:
			callee := astutil.Callee(info, n)
			if callee == nil {
				if t := namedOf(info.TypeOf(n.Fun)); t != nil && c.blockingTypes[typeKey(t)] {
					c.report(pkg, n.Pos(), fmt.Sprintf("calling a %s value may block the event loop (the type is %s); run it in the work closure of Offload",
						t.Obj().Name(), dirBlocking), rootName, e)
				}
				return true
			}
			if why := bannedCall(callee); why != "" {
				c.report(pkg, n.Pos(), why, rootName, e)
				return true
			}
			full := callee.FullName()
			if c.loopSafe[full] || c.visited[full] {
				return true
			}
			if src := c.pass.Program.FuncSource(full); src != nil {
				next := e
				if pkg.Types == c.pass.Pkg {
					next = edge{pos: n.Pos(), callee: full}
				}
				c.walkFunc(src.Pkg, full, src.Decl.Body, rootName, next)
			}
		}
		return true
	}
	astutil.InspectStack(body, walk)
}

// offLoopLiteral reports whether the function literal is handed to a
// context that runs it on another goroutine: a `go` statement (handled
// separately), time.AfterFunc, or Offload as its work closure.
func offLoopLiteral(info *types.Info, lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := astutil.Callee(info, call)
	if callee == nil {
		return false
	}
	for i, arg := range call.Args {
		if arg == lit {
			return callee.Name() == "AfterFunc" && astutil.PkgPathIs(callee.Pkg(), "time") ||
				callee.Name() == "Offload" && i == len(call.Args)-2
		}
	}
	return false
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// inNonBlockingSelect reports whether n is the communication operation
// of a select case. Comm ops are governed by the select-level check
// (a select without default is reported once, at the select); only
// operations in a case's *body* are reported individually.
func inNonBlockingSelect(n ast.Node, stack []ast.Node) bool {
	child := n
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.CommClause:
			return anc.Comm == child
		case *ast.ExprStmt, *ast.AssignStmt, *ast.UnaryExpr:
			child = stack[i].(ast.Node)
			continue
		default:
			_ = anc
			return false
		}
	}
	return false
}

// bannedCall classifies callees that block unboundedly (or deadlock)
// when invoked on the event loop. The returned string is the
// diagnostic, or "" when the call is allowed.
func bannedCall(f *types.Func) string {
	pkg, name, recv := f.Pkg(), f.Name(), astutil.ReceiverTypeName(f)
	switch {
	case astutil.PkgPathIs(pkg, "time") && name == "Sleep":
		return "time.Sleep blocks the event loop"
	case astutil.PkgPathIs(pkg, "sync") && name == "Wait" && (recv == "WaitGroup" || recv == "Cond"):
		return "sync." + recv + ".Wait blocks the event loop"
	case astutil.PkgPathIs(pkg, "rt") && recv == "Runtime" && (name == "Do" || name == "Ping" || name == "Close"):
		return "(*rt.Runtime)." + name + " called from the event loop deadlocks (the loop would wait on itself); use DoAsync or restructure"
	case astutil.PkgPathIs(pkg, "net") && (strings.HasPrefix(name, "Dial") || name == "Read" || name == "Write" || name == "Accept"):
		return "net." + name + " performs raw network I/O on the event loop"
	case astutil.PkgPathIs(pkg, "os/exec") && (name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
		return "os/exec." + name + " waits for a subprocess on the event loop"
	case astutil.PkgPathIs(pkg, "net/http") && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head" || name == "Do"):
		return "net/http round trip on the event loop"
	}
	return ""
}

func (c *checker) report(pkg *analysis.Package, pos token.Pos, msg, rootName string, e edge) {
	// Violations inside this package anchor at the violating
	// statement; violations the walk found in another package anchor
	// at the call site where this package handed control away.
	if pkg.Types != c.pass.Pkg {
		if !e.pos.IsValid() {
			return // entirely foreign chain: that package's pass owns it
		}
		pos = e.pos
		msg = fmt.Sprintf("call to %s reaches blocking code: %s", e.callee, msg)
	}
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "%s (in code reachable from %s %s)", msg, dirLoopOnly, rootName)
}

// ---------------------------------------------------------------------
// Loop-owned state
// ---------------------------------------------------------------------

// checkOwnedAccess flags field accesses of loop-owned structs outside
// the loop: not in a loop-only function, not inside a literal passed to
// Do/DoAsync/After or Offload's completion, and not in a constructor —
// or anywhere at all inside a literal that runs off the loop, whatever
// encloses it.
func (c *checker) checkOwnedAccess() {
	if len(c.ownedTypes) == 0 {
		return
	}
	pass := c.pass
	for _, file := range pass.Files {
		astutil.InspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			owner := namedOf(selection.Recv())
			if owner == nil || !c.ownedTypes[typeKey(owner)] {
				return true
			}
			if c.allowedContext(owner, stack) {
				return true
			}
			c.pass.Reportf(sel.Sel.Pos(),
				"field %s of %s %s accessed off the event loop; wrap the access in rt.Do/DoAsync or mark the function %s",
				sel.Sel.Name, dirLoopOwned, owner.Obj().Name(), dirLoopOnly)
			return true
		})
	}
}

func (c *checker) allowedContext(owner *types.Named, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CompositeLit:
			// Constructing a value (field keys / initial values) is
			// pre-publication and safe.
			if namedOf(c.pass.TypesInfo.TypeOf(n)) == owner {
				return true
			}
		case *ast.FuncLit:
			if offLoopLiteral(c.pass.TypesInfo, n, stack[:i]) {
				return false
			}
			if i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && marshalsOntoLoop(c.pass.TypesInfo, call, n) {
					return true
				}
			}
		case *ast.FuncDecl:
			obj, _ := c.pass.TypesInfo.Defs[n.Name].(*types.Func)
			if obj == nil {
				return false
			}
			if c.loopFuncs[obj.FullName()] {
				return true
			}
			return isConstructor(obj, owner)
		}
	}
	return false
}

// marshalsOntoLoop reports whether call runs the literal argument on
// the event loop: a method named Do / DoAsync (rt.Runtime and the
// gridrpc facades), After on an Env/Runtime (loop timers), or Offload,
// whose last argument is the completion it runs back on the loop.
func marshalsOntoLoop(info *types.Info, call *ast.CallExpr, lit *ast.FuncLit) bool {
	callee := astutil.Callee(info, call)
	if callee == nil {
		return false
	}
	isArg := false
	for _, arg := range call.Args {
		if arg == lit {
			isArg = true
		}
	}
	if !isArg {
		return false
	}
	switch callee.Name() {
	case "Do", "DoAsync":
		return true
	case "After":
		recv := astutil.ReceiverTypeName(callee)
		return recv == "Env" || recv == "Runtime"
	case "Offload":
		return call.Args[len(call.Args)-1] == lit
	}
	return false
}

// isConstructor reports whether f is a package-level function of the
// owner's package returning the owner type (by value or pointer).
func isConstructor(f *types.Func, owner *types.Named) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || f.Pkg() != owner.Obj().Pkg() {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if namedOf(results.At(i).Type()) == owner {
			return true
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
