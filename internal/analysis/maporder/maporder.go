// Package maporder flags range-over-map loops whose iteration order leaks
// into observable simulation state.
//
// Go randomizes map iteration order on purpose, so a map-range loop that
// sends messages, records spans, events or samples, or builds a result
// slice produces a different message/trace/result order on every run — the
// one thing the virtual-clock methodology cannot tolerate. The fix is always
// the same: collect the keys, sort them, iterate the sorted slice. A loop
// that appends to an escaping slice is not flagged when the slice is sorted
// later in the same block (the collect-then-sort idiom).
package maporder

import (
	"go/ast"
	"go/types"

	"bridge/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order reaches messages, traces or results\n\n" +
		"Sends, trace writes and escaping appends inside a range-over-map " +
		"make run output depend on Go's randomized map order; iterate over " +
		"sorted keys instead.",
	Run: run,
}

// observableCalls maps package-path base → method/function names whose
// call order is observable simulation state. The recorder's span ids are
// sequential, so the order spans start in is observable as much as the
// order of its events and samples.
var observableCalls = map[string]map[string]bool{
	"sim": {"Send": true, "SendDelayed": true, "Close": true},
	"msg": {"Send": true, "SendDelayed": true, "Call": true, "CallTimeout": true, "Close": true},
	"obs": {"Event": true, "Start": true, "Sample": true},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncBody(pass, fd.Body)
		}
	}
	return nil
}

// checkFuncBody examines every range-over-map inside body (including ones
// in nested function literals, which get their own recursive walk).
func checkFuncBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rng)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(rng.For,
				"map iteration order reaches a channel send at %s; iterate over sorted keys",
				pass.Fset.Position(n.Pos()))
			return true
		case *ast.CallExpr:
			if fn := analysis.Callee(pass.TypesInfo, n); fn != nil {
				base := analysis.PkgPathBase(fn.Pkg())
				names, ok := observableCalls[base]
				if ok && (names == nil || names[fn.Name()]) {
					pass.Reportf(rng.For,
						"map iteration order reaches %s.%s at %s; iterate over sorted keys",
						base, fn.Name(), pass.Fset.Position(n.Pos()))
				}
			}
			if obj := escapingAppend(pass, rng, n); obj != nil && !sortedAfter(pass, funcBody, rng, obj) {
				pass.Reportf(rng.For,
					"map iteration order determines the order of %q, which escapes the loop unsorted; iterate over sorted keys or sort the result",
					obj.Name())
			}
			return true
		}
		return true
	})
}

// escapingAppend returns the variable object when call is append(x, ...)
// with x declared outside the range statement, i.e. the built slice (and
// the map's iteration order) survives the loop.
func escapingAppend(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) *types.Var {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	obj := baseVar(pass, call.Args[0])
	if obj == nil {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil // declared inside the loop: order cannot escape
	}
	return obj
}

// baseVar unwraps selector chains (snap.Files → snap) and resolves the
// base identifier to its variable, or nil.
func baseVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	target := ast.Unparen(e)
	for {
		sel, ok := target.(*ast.SelectorExpr)
		if !ok {
			break
		}
		target = ast.Unparen(sel.X)
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// sortedAfter reports whether some statement after rng (anywhere later in
// the enclosing function body) sorts obj, which launders the map order.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj *types.Var) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() || found {
			return !found
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if baseVar(pass, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}
