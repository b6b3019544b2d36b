// Package journalorder checks the write-ahead ordering contract of the
// EFS intent journal (internal/efs/journal.go).
//
// A journaled volume is crash-consistent only if, within group commit,
// every deferred home write is applied after the journal records that
// describe it are on stable storage, and a checkpoint invalidates those
// records (by bumping the header epoch) only after the home writes they
// guard are themselves stable. Both orderings are one misplaced line away
// from silent corruption that only a crash at the wrong virtual time can
// reveal, so this analyzer proves them on the control-flow graph with a
// forward must-happen-before lattice:
//
//   - A device write (WriteBlock, or a WriteRun of several blocks) whose
//     address derives from a homeWrite (the commit plan's deferred-apply
//     record) must have a Sync barrier on every path from function entry —
//     the journal records written before the barrier are what make the
//     apply redoable.
//   - A function applying homeWrites must also append journal records
//     (a device write addressed through the journal cursor).
//   - An increment of a journal epoch field must have a Sync on every
//     path from function entry — checkpoint may not invalidate records
//     whose home writes are still volatile.
//   - Held tails (uncommitted append tails kept in memory until their link
//     is final) must be released, by a writeHeld call, before the barrier:
//     in a function that appends journal records, every Sync must have a
//     writeHeld on every path from function entry, and no writeHeld may be
//     reachable from a Sync. A tail released after the barrier is a block
//     the durable commit names as a file's last but a crash can lose.
//
// The analyzer only runs on internal/efs. The homeWrite type, the journal
// cursor field, the epoch field and the writeHeld method are the contract's
// named carriers; renaming them is an API change that should revisit this
// check.
package journalorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bridge/internal/analysis"
	"bridge/internal/analysis/cfg"
)

// Analyzer is the journalorder check.
var Analyzer = &analysis.Analyzer{
	Name: "journalorder",
	Doc: "flag journal write-ahead ordering violations in internal/efs\n\n" +
		"Deferred home writes must be dominated by a Sync barrier (after " +
		"the journal records are appended), and a checkpoint's epoch bump " +
		"must be dominated by a Sync of the applied home writes. Held tails " +
		"must be released (writeHeld) before a group commit's barrier.",
	Run: run,
}

const (
	synced cfg.FactSet = 1 << iota
	released
)

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !strings.HasSuffix(pass.Pkg.Path(), "internal/efs") {
		return nil
	}
	graphs := cfg.PackageGraphs(pass)
	graphs.All(func(g *cfg.Graph) {
		if g.HasGoto || analysis.IsTestFile(pass.Fset, g.Func.Pos()) {
			return
		}
		checkFunc(pass, g)
	})
	return nil
}

func checkFunc(pass *analysis.Pass, g *cfg.Graph) {
	info := pass.TypesInfo
	var homeApplies []*ast.CallExpr // device write of a homeWrite-derived address
	var journalAppends int          // device write addressed through the journal cursor
	var epochBumps []ast.Node
	var syncs, releases []*ast.CallExpr // barriers; writeHeld calls

	ast.Inspect(g.Func, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if ast.Node(n) != g.Func {
				return false // belongs to its own graph
			}
		case *ast.CallExpr:
			fn := analysis.Callee(info, n)
			if fn != nil && fn.Name() == "Sync" {
				syncs = append(syncs, n)
			}
			if fn != nil && fn.Name() == "writeHeld" {
				releases = append(releases, n)
			}
			if fn == nil || !isDeviceWrite(fn.Name()) || len(n.Args) < 2 {
				return true
			}
			addr := n.Args[1]
			if refsField(info, addr, "addr", "homeWrite") {
				homeApplies = append(homeApplies, n)
			}
			if refsField(info, addr, "cursor", "journal") {
				journalAppends++
			}
		case *ast.IncDecStmt:
			if n.Tok == token.INC && isEpochField(info, n.X) {
				epochBumps = append(epochBumps, n)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isEpochField(info, n.Lhs[0]) {
				epochBumps = append(epochBumps, n)
			}
		}
		return true
	})
	commits := journalAppends > 0 && len(syncs) > 0
	if len(homeApplies) == 0 && len(epochBumps) == 0 && len(releases) == 0 && !commits {
		return
	}

	flow := g.ForwardMust(func(n ast.Node) cfg.FactSet {
		var facts cfg.FactSet
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if fn := analysis.Callee(info, call); fn != nil && fn.Name() == "Sync" {
					facts |= synced
				} else if fn != nil && fn.Name() == "writeHeld" {
					facts |= released
				}
			}
			return true
		})
		return facts
	})

	for _, call := range homeApplies {
		if flow.Before(call)&synced == 0 {
			pass.Reportf(call.Pos(),
				"home write applied before the journal barrier: this %s lands a deferred homeWrite, so a d.Sync hardening the journal records must dominate it", analysis.Callee(info, call).Name())
		}
	}
	if len(homeApplies) > 0 && journalAppends == 0 {
		pass.Reportf(homeApplies[0].Pos(),
			"home writes applied in %s without appending journal records: write intent records through the journal cursor before applying", g.Name)
	}
	for _, bump := range epochBumps {
		if flow.Before(bump)&synced == 0 {
			pass.Reportf(bump.Pos(),
				"journal epoch bumped before the applied home writes are synced: checkpoint must Sync before invalidating its intent records")
		}
	}
	if commits {
		for _, sync := range syncs {
			if flow.Before(sync)&released == 0 {
				pass.Reportf(sync.Pos(),
					"journal barrier reached without releasing held tails: a writeHeld must run before this Sync on every path, or the commit names a last block no write covers")
			}
		}
	}
	for _, rel := range releases {
		for _, sync := range syncs {
			if nodeReaches(g, sync, rel) {
				pass.Reportf(rel.Pos(),
					"held tails released after the journal barrier: this writeHeld is reachable from a Sync, so a crash can lose a tail the durable commit names")
				break
			}
		}
	}
}

// isDeviceWrite reports whether a method of this name writes blocks to the
// device: one (WriteBlock) or a run on one track (WriteRun), each with the
// block address as its second argument.
func isDeviceWrite(name string) bool { return name == "WriteBlock" || name == "WriteRun" }

// nodeReaches reports whether some path runs from just after node a to
// node b.
func nodeReaches(g *cfg.Graph, a, b ast.Node) bool {
	ba, ia := g.BlockOf(a.Pos())
	bb, ib := g.BlockOf(b.Pos())
	if ba == nil || bb == nil {
		return false
	}
	if ba == bb && ia < ib {
		return true
	}
	for _, e := range ba.Succs {
		if g.Reaches(e.To, bb) {
			return true
		}
	}
	return false
}

// refsField reports whether expr contains a selector .field on a value
// of the named (possibly pointered) type typeName from this package.
func refsField(info *types.Info, expr ast.Expr, field, typeName string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != field {
			return true
		}
		if namedTypeName(info.TypeOf(sel.X)) == typeName {
			found = true
			return false
		}
		return true
	})
	return found
}

// isEpochField reports whether expr is a selector .epoch on a journal.
func isEpochField(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "epoch" {
		return false
	}
	return namedTypeName(info.TypeOf(sel.X)) == "journal"
}

// namedTypeName returns the name of t's named type, dereferencing one
// pointer, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
