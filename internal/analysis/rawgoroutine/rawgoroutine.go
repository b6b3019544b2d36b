// Package rawgoroutine flags go statements in process code.
//
// The discrete-event scheduler only advances the virtual clock when every
// process it knows about is blocked on a sim primitive. A goroutine
// spawned with a raw go statement is invisible to the scheduler: it races
// against virtual time, its interleaving depends on the host, and any
// state it touches breaks replay. Process code must spawn concurrency with
// Runtime.Go or Proc.Go.
//
// Exempt: internal/sim itself (the virtual runtime is built out of
// goroutines, each parked by its scheduler), internal/msg/tcpnet (real
// network I/O, kept only as the benchmark's probe target), package main,
// and _test.go files (test harnesses legitimately pump the host side).
package rawgoroutine

import (
	"go/ast"
	"strings"

	"bridge/internal/analysis"
)

// Analyzer is the rawgoroutine check.
var Analyzer = &analysis.Analyzer{
	Name: "rawgoroutine",
	Doc: "flag raw go statements outside the sim runtime\n\n" +
		"Goroutines the scheduler cannot see race against virtual time; " +
		"process code must use Runtime.Go or Proc.Go.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || pass.Pkg.Name() == "main" {
		return nil
	}
	path := pass.Pkg.Path()
	if strings.HasSuffix(path, "internal/sim") || strings.HasSuffix(path, "internal/msg/tcpnet") {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw go statement in process code: the scheduler cannot see this goroutine; use Runtime.Go or Proc.Go")
			}
			return true
		})
	}
	return nil
}
