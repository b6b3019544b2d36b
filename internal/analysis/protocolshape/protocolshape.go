// Package protocolshape checks the structural conventions of the wire
// protocols in internal/lfs, internal/core, and internal/raft.
//
// These packages speak typed request/reply protocols: every XxxReq has an
// XxxResp, serve loops dispatch on type switches that must stay exhaustive
// as kinds are added, and the write-dedup cache replays a reply only
// after a type assertion that must name the matching kind (PR 3's replay
// bug was exactly a kind-confused assertion). None of these conventions is
// enforced by the compiler — a missing switch case falls into the default
// arm and misbehaves quietly — so this analyzer checks three shapes. (How a
// reply says it failed needs no shape check: every reply embeds msg.Status,
// and errcmp keeps anything from classifying an error by its text.)
//
//   - R1: every named type XxxReq has a sibling XxxResp, and vice versa.
//   - R2: a type switch that covers most (≥60%) but not all of a
//     protocol's Req or Resp kinds is missing cases. The protocol universe
//     is inferred from the files declaring the kinds the switch already
//     covers, so the LFS server protocol and the node-agent protocol in
//     the same package do not pollute each other's exhaustiveness. A
//     function's coverage includes the switches of same-package functions
//     it calls, so a dispatcher split across helpers still verifies.
//   - R4: inside a `case XxxReq:` clause, a type assertion to a reply
//     type must assert XxxResp, not some other kind.
package protocolshape

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bridge/internal/analysis"
)

// Analyzer is the protocolshape check.
var Analyzer = &analysis.Analyzer{
	Name: "protocolshape",
	Doc: "flag wire-protocol shape violations in internal/lfs, internal/core, and internal/raft\n\n" +
		"Req/Resp types must come in pairs, dispatch type switches must be " +
		"exhaustive over their protocol's kinds, and dedup replay " +
		"assertions must name the handler's own reply kind.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	path := pass.Pkg.Path()
	if !strings.HasSuffix(path, "internal/lfs") && !strings.HasSuffix(path, "internal/core") &&
		!strings.HasSuffix(path, "internal/raft") {
		return nil
	}
	kinds := protocolKinds(pass)
	checkPairing(pass, kinds)
	checkCoverage(pass, kinds)
	checkReplayKind(pass)
	return nil
}

// kindInfo is one protocol message type.
type kindInfo struct {
	name string
	file string // base name of the declaring file
	pos  token.Pos
	resp bool // XxxResp as opposed to XxxReq
}

// protocolKinds enumerates the package's Req/Resp named types. Bare "Req"
// and "Resp" are not protocol kinds.
func protocolKinds(pass *analysis.Pass) map[string]*kindInfo {
	kinds := make(map[string]*kindInfo)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		resp := strings.HasSuffix(name, "Resp") && name != "Resp"
		req := strings.HasSuffix(name, "Req") && name != "Req"
		if !req && !resp {
			continue
		}
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || analysis.IsTestFile(pass.Fset, tn.Pos()) {
			continue
		}
		p := pass.Fset.Position(tn.Pos())
		base := p.Filename
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		kinds[name] = &kindInfo{name: name, file: base, pos: tn.Pos(), resp: resp}
	}
	return kinds
}

// checkPairing is R1: every Req has a Resp and vice versa.
func checkPairing(pass *analysis.Pass, kinds map[string]*kindInfo) {
	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		k := kinds[n]
		var want string
		if k.resp {
			want = strings.TrimSuffix(n, "Resp") + "Req"
		} else {
			want = strings.TrimSuffix(n, "Req") + "Resp"
		}
		if kinds[want] == nil {
			what := "request"
			if k.resp {
				what = "reply"
			}
			pass.Reportf(k.pos,
				"%s type %s has no matching %s: protocol messages come in Req/Resp pairs", what, n, want)
		}
	}
}

// funcCover is the per-function R2 state.
type funcCover struct {
	decl       *ast.FuncDecl
	obj        *types.Func
	reqCov     map[string]bool
	respCov    map[string]bool
	reqSwitch  token.Pos // first type switch with a Req case in this body
	respSwitch token.Pos
	calls      map[*types.Func]bool
}

// checkCoverage is R2: near-exhaustive dispatch switches.
func checkCoverage(pass *analysis.Pass, kinds map[string]*kindInfo) {
	info := pass.TypesInfo
	var funcs []*funcCover
	byObj := make(map[*types.Func]*funcCover)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fc := &funcCover{
				decl: fd, obj: obj,
				reqCov: map[string]bool{}, respCov: map[string]bool{},
				calls: map[*types.Func]bool{},
			}
			collectCover(info, fd, kinds, fc)
			funcs = append(funcs, fc)
			byObj[obj] = fc
		}
	}
	// Fixpoint: a caller covers what its same-package callees cover.
	for changed := true; changed; {
		changed = false
		for _, fc := range funcs {
			for callee := range fc.calls {
				c := byObj[callee]
				if c == nil {
					continue
				}
				for k := range c.reqCov {
					if !fc.reqCov[k] {
						fc.reqCov[k] = true
						changed = true
					}
				}
				for k := range c.respCov {
					if !fc.respCov[k] {
						fc.respCov[k] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fc := range funcs {
		reportCover(pass, kinds, fc.reqSwitch, fc.reqCov, "Req")
		reportCover(pass, kinds, fc.respSwitch, fc.respCov, "Resp")
	}
}

// collectCover records fd's own switch cases and same-package call edges.
func collectCover(info *types.Info, fd *ast.FuncDecl, kinds map[string]*kindInfo, fc *funcCover) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				cc := c.(*ast.CaseClause)
				for _, texpr := range cc.List {
					t := info.TypeOf(texpr)
					k := kinds[typeName(t)]
					if k == nil || !declaredBy(t, fc.obj.Pkg()) {
						continue
					}
					if k.resp {
						fc.respCov[k.name] = true
						if fc.respSwitch == token.NoPos {
							fc.respSwitch = n.Pos()
						}
					} else {
						fc.reqCov[k.name] = true
						if fc.reqSwitch == token.NoPos {
							fc.reqSwitch = n.Pos()
						}
					}
				}
			}
		case *ast.CallExpr:
			if fn := analysis.Callee(info, n); fn != nil && fn.Pkg() == fc.obj.Pkg() {
				fc.calls[fn] = true
			}
		}
		return true
	})
}

// reportCover flags a switch covering ≥60% but <100% of its protocol. The
// protocol universe is every kind of the class declared in the files that
// declare the covered kinds.
func reportCover(pass *analysis.Pass, kinds map[string]*kindInfo, sw token.Pos, cov map[string]bool, class string) {
	if sw == token.NoPos || len(cov) == 0 {
		return
	}
	files := make(map[string]bool)
	for name := range cov {
		files[kinds[name].file] = true
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	var all, missing []string
	for _, name := range names {
		k := kinds[name]
		if k.resp != (class == "Resp") || !files[k.file] {
			continue
		}
		all = append(all, name)
		if !cov[name] {
			missing = append(missing, name)
		}
	}
	nCov := len(all) - len(missing)
	if len(missing) == 0 || nCov*10 < len(all)*6 {
		return
	}
	pass.Reportf(sw,
		"type switch covers %d of %d %s kinds; missing %s: add the missing case or the kind falls to the default arm",
		nCov, len(all), class, strings.Join(missing, ", "))
}

// checkReplayKind is R4: a reply-type assertion inside a single-kind Req
// case clause must assert the matching Resp.
func checkReplayKind(pass *analysis.Pass) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok || len(cc.List) != 1 {
				return true
			}
			reqName := typeName(info.TypeOf(cc.List[0]))
			if !strings.HasSuffix(reqName, "Req") || reqName == "Req" ||
				!samePkgType(pass, info.TypeOf(cc.List[0])) {
				return true
			}
			want := strings.TrimSuffix(reqName, "Req") + "Resp"
			for _, stmt := range cc.Body {
				ast.Inspect(stmt, func(c ast.Node) bool {
					ta, ok := c.(*ast.TypeAssertExpr)
					if !ok || ta.Type == nil {
						return true
					}
					got := typeName(info.TypeOf(ta.Type))
					if strings.HasSuffix(got, "Resp") && got != "Resp" && got != want &&
						samePkgType(pass, info.TypeOf(ta.Type)) {
						pass.Reportf(ta.Pos(),
							"type assertion to %s inside the %s handler: a kind-confused replay returns the wrong reply; assert %s",
							got, reqName, want)
					}
					return true
				})
			}
			return true
		})
	}
}

// typeName names t's (possibly pointered) named type, or "".
func typeName(t types.Type) string {
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

// samePkgType reports whether t's named type is declared in the package
// under analysis.
func samePkgType(pass *analysis.Pass, t types.Type) bool {
	return declaredBy(t, pass.Pkg)
}

// declaredBy reports whether t's (possibly pointered) named type is
// declared in pkg.
func declaredBy(t types.Type, pkg *types.Package) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == pkg
}
