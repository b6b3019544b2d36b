// Package errcmp flags the two ways of classifying an error that break
// silently: ==/!= against a sentinel error variable, and a search for a
// sentinel's text.
//
// The retry layer, the fault injector and the replica layer all wrap
// errors (fmt.Errorf with %w) to add context — ErrLFSFailed wraps the LFS
// status, ErrInjected wraps the fault site, and so on. A direct
// err == ErrNodeDown comparison is true only for the naked sentinel and
// silently turns false the day a wrapping layer is inserted between
// producer and consumer. errors.Is is the only comparison that survives
// wrapping; switch statements over an error value are the same bug in
// different syntax.
//
// An error that crossed a message boundary arrives as a code and a detail
// (msg.Status); its class is the code. Searching the detail for
// ErrX.Error() — strings.Contains, Index, HasPrefix, HasSuffix, EqualFold,
// or ==/!= against the text — classifies by words a file name or a wrapped
// message can also spell, which is how a Stat of the missing file
// "log: bridge: not leader" once sent the client hunting for a leader.
// Non-test code may not do it; the class comes from the status's code.
package errcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"bridge/internal/analysis"
)

// Analyzer is the errcmp check.
var Analyzer = &analysis.Analyzer{
	Name: "errcmp",
	Doc: "flag ==/!= against sentinel errors, and searches for their text, instead of errors.Is\n\n" +
		"Direct comparison breaks as soon as a retry or fault layer wraps " +
		"the error; use errors.Is(err, ErrX). Matching ErrX.Error() inside " +
		"a string classifies an error by its text; use the status's code.",
	Run: run,
}

var sentinelName = regexp.MustCompile(`^Err[A-Z0-9]`)

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	for _, f := range pass.Files {
		byText := !analysis.IsTestFile(pass.Fset, f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isNil(pass, n.X) || isNil(pass, n.Y) {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if v := sentinelVar(pass, side); v != nil {
						pass.Reportf(n.OpPos,
							"%s compared with %s: use errors.Is, which still matches once the retry/fault layers wrap the error",
							n.Op, v.Name())
						return true
					}
					if v := sentinelText(pass, side); v != nil && byText {
						pass.Reportf(n.OpPos,
							"%s against %s.Error() classifies an error by its text: compare the status's code, or use errors.Is",
							n.Op, v.Name())
						return true
					}
				}
			case *ast.CallExpr:
				fn := analysis.Callee(pass.TypesInfo, n)
				if !byText || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || len(n.Args) != 2 {
					return true
				}
				// The pattern is the second argument; EqualFold has two.
				pattern := n.Args[1:]
				switch fn.Name() {
				case "Contains", "Index", "HasPrefix", "HasSuffix":
				case "EqualFold":
					pattern = n.Args
				default:
					return true
				}
				for _, arg := range pattern {
					if v := sentinelText(pass, arg); v != nil {
						pass.Reportf(n.Pos(),
							"strings.%s for %s.Error() classifies an error by its text: compare the status's code, or use errors.Is",
							fn.Name(), v.Name())
						return true
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if v := sentinelVar(pass, e); v != nil {
							pass.Reportf(e.Pos(),
								"switch case compares with sentinel %s by ==: use if/else with errors.Is instead",
								v.Name())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// sentinelText resolves e to the sentinel X of an `X.Error()` call, or nil.
func sentinelText(pass *analysis.Pass, e ast.Expr) *types.Var {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return nil
	}
	return sentinelVar(pass, sel.X)
}

// sentinelVar resolves e to a package-level `var ErrX = ...` of type error,
// from any package, or nil.
func sentinelVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !sentinelName.MatchString(v.Name()) {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	errType := types.Universe.Lookup("error").Type()
	if !types.AssignableTo(v.Type(), errType) {
		return nil
	}
	return v
}
