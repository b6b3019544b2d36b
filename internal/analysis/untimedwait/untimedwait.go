// Package untimedwait flags a wait for a reply on a msg.Client outside the one
// place that bounds it.
//
// A call to a storage node has one failure rule, lfs.Client's (in
// internal/lfs/client.go): fast-fail on a node the caller's down-view names, a
// bounded await, abandon in flight, discard on give-up. A process that waits
// on a msg.Client itself — Await, AwaitTimeout, TryAwait, Call, CallTimeout —
// makes up a rule of its own, and an un-timed one wedges the process for good
// when the node it waits on dies. Elsewhere in core the server's lfs.Client
// (s.lc) only abandons or peeks: lfscall.go adds its retries and probe report.
// Test files are exempt: the virtual runtime reports a test's wait that never
// ends as a deadlock.
package untimedwait

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"bridge/internal/analysis"
)

// Analyzer is the untimedwait check.
var Analyzer = &analysis.Analyzer{
	Name: "untimedwait",
	Doc: "flag msg.Client reply waits outside internal/msg and internal/lfs/client.go\n\n" +
		"Every call to a storage node goes through lfs.Client, whose policy " +
		"bounds the wait and abandons a call to a node that died.",
	Run: run,
}

const msgPath = "bridge/internal/msg"

// waits are the msg.Client methods that block for, or take, a reply.
var waits = map[string]bool{"Await": true, "AwaitTimeout": true, "TryAwait": true, "Call": true, "CallTimeout": true}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || pass.Pkg.Path() == msgPath {
		return nil
	}
	for _, f := range pass.Files {
		file := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		ruleFile := pass.Pkg.Path() == "bridge/internal/lfs" && file == "client.go"
		if ruleFile || analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		serverRule := pass.Pkg.Path() == "bridge/internal/core" && file != "lfscall.go"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			switch {
			case fn == nil:
			case waits[fn.Name()] && on(fn, msgPath+".Client"):
				pass.Reportf(call.Pos(),
					"msg.Client.%s waits for a reply outside lfs.Client: start and await the call through an lfs.Client, whose policy bounds it",
					fn.Name())
			case serverRule && fn.Name() != "Discard" && fn.Name() != "Poll" && on(fn, "bridge/internal/lfs.Client") &&
				strings.HasSuffix(types.ExprString(call.Fun), ".lc."+fn.Name()):
				pass.Reportf(call.Pos(),
					"the server's lfs.Client.%s outside lfscall.go skips LFSRetry and the missed-probe report: use lfsStart and lfsFinish",
					fn.Name())
			}
			return true
		})
	}
	return nil
}

// on reports whether fn is a method of *typ.
func on(fn *types.Func, typ string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.TypeString(recv.Type(), nil) == "*"+typ
}
