// Package internedmut flags mutations of memory reachable from an
// interned instance snapshot outside the instance package.
//
// The contract (internal/instance doc comment): pointer identity of a
// *instance.Interned names one immutable instance state, and the
// accessor views Adom, Relations, Consts, RelBlocks, Block and Out
// alias shared memory that must not be modified. Facts and Blocks
// return fresh slices and stay on the list only as a safe
// over-approximation. Every solver tier and every per-snapshot memo
// keys on that immutability; a single in-place sort or element write
// corrupts a warm artifact for every concurrent reader of the same
// snapshot.
//
// The analyzer runs a per-function forward taint pass: values produced
// by the shared-view accessors (or derived from them by indexing,
// slicing, or ranging) are tainted, and a write sink on a tainted value
// — element assignment, in-place sort, copy-into, or append (which may
// write the shared backing array when spare capacity exists) — is a
// finding. The instance package itself is exempt: it is the
// construction scope, where snapshots are built before publication.
package internedmut

import (
	"go/ast"
	"go/types"

	"cqa/internal/lint/analysis"
	"cqa/internal/lint/typeutil"
)

// Analyzer flags writes to shared snapshot memory.
var Analyzer = &analysis.Analyzer{
	Name: "internedmut",
	Doc:  "flag mutation of slices reachable from an interned instance snapshot outside the instance package",
	Run:  run,
}

const instancePath = "cqa/internal/instance"

// sharedViews lists the accessor methods whose results alias snapshot
// memory, per receiver type in the instance package.
var sharedViews = map[string]map[string]bool{
	"Interned": {"Consts": true, "RelBlocks": true, "Block": true},
	"Instance": {"Facts": true, "Adom": true, "Relations": true, "Blocks": true, "Block": true, "Out": true},
}

// sortFuncs are the in-place sorts of package sort that make a write
// sink out of their first argument.
var sortFuncs = map[string]bool{
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true, "Sort": true, "Stable": true,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "instance" {
		// Construction scope: snapshots are assembled here before they
		// are published; the immutability contract starts at publish.
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil, nil
}

// checkFunc runs the taint pass over one function body (closures
// included: a captured tainted variable stays tainted inside them).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			return tainted[pass.TypesInfo.ObjectOf(v)]
		case *ast.CallExpr:
			return isSharedViewCall(pass, v)
		case *ast.SelectorExpr:
			// InternedBlock.Vals aliases the snapshot's interned value
			// ids; outside the instance package the only way to hold an
			// InternedBlock is to have read it from a snapshot.
			if v.Sel.Name == "Vals" && typeutil.IsNamed(typeOf(pass, v.X), instancePath, "InternedBlock") {
				return true
			}
			return false
		case *ast.IndexExpr:
			return taintedExpr(v.X)
		case *ast.SliceExpr:
			return taintedExpr(v.X)
		case *ast.ParenExpr:
			return taintedExpr(v.X)
		}
		return false
	}

	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(), "%s a slice reachable from an interned snapshot view; snapshot memory is immutable after publication (copy it first)", what)
	}

	checkWrite := func(lhs ast.Expr) {
		switch t := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if taintedExpr(t.X) {
				report(t, "writes an element of")
			}
		case *ast.SelectorExpr:
			if taintedExpr(t) || taintedExpr(t.X) {
				report(t, "writes a field of")
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lh := range s.Lhs {
				checkWrite(lh)
			}
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					id, ok := s.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.ObjectOf(id)
					if obj == nil {
						continue
					}
					if taintedExpr(s.Rhs[i]) {
						tainted[obj] = true
					} else {
						delete(tainted, obj)
					}
				}
			}
		case *ast.RangeStmt:
			if taintedExpr(s.X) {
				if id, ok := s.Value.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						tainted[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			checkWrite(s.X)
		case *ast.CallExpr:
			checkCallSinks(pass, s, taintedExpr, report)
		}
		return true
	})
}

// checkCallSinks flags calls that mutate their argument in place.
func checkCallSinks(pass *analysis.Pass, call *ast.CallExpr, taintedExpr func(ast.Expr) bool, report func(ast.Node, string)) {
	if len(call.Args) == 0 {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "copy":
				if taintedExpr(call.Args[0]) {
					report(call, "copies into")
				}
			case "append":
				if taintedExpr(call.Args[0]) {
					report(call, "appends to")
				}
			}
		}
	case *ast.SelectorExpr:
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn != nil && sortFuncs[fn.Name()] && typeutil.IsPkgFunc(fn, "sort", fn.Name()) && taintedExpr(call.Args[0]) {
			report(call, "sorts in place")
		}
	}
}

// isSharedViewCall reports whether call invokes a shared-view accessor
// of the instance package.
func isSharedViewCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := typeutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	recv := typeutil.RecvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != instancePath {
		return false
	}
	return sharedViews[recv.Obj().Name()][fn.Name()]
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	return pass.TypesInfo.TypeOf(e)
}
