package cfg

import (
	"go/ast"

	"bridge/internal/analysis"
)

// Graphs is the per-package CFG suite: one Graph per function declaration
// and function literal, in source order.
type Graphs struct {
	graphs []*Graph
}

type graphsKey struct{}

// PackageGraphs returns the package's CFG suite, building it on first use
// and caching it in the pass's shared fact store so the analyzers of one
// run share a single construction.
func PackageGraphs(pass *analysis.Pass) *Graphs {
	return pass.Shared.Fact(graphsKey{}, func() any {
		gs := &Graphs{}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body == nil {
						return true
					}
					gs.add(fn, pass)
				case *ast.FuncLit:
					gs.add(fn, pass)
				}
				return true
			})
		}
		return gs
	}).(*Graphs)
}

func (gs *Graphs) add(fn ast.Node, pass *analysis.Pass) {
	gs.graphs = append(gs.graphs, New(fn, pass.Fset, pass.TypesInfo))
}

// All calls visit for every graph in source order.
func (gs *Graphs) All(visit func(*Graph)) {
	for _, g := range gs.graphs {
		visit(g)
	}
}

// WalkFunc traverses the body of g's function — including nested function
// literals — calling visit with each node and the stack of its ancestors
// (outermost first, not including n itself). Analyzers use the stack to
// classify a use site: inside a deferred closure, inside an escaping
// closure, on the left of an assignment.
func (g *Graph) WalkFunc(visit func(n ast.Node, stack []ast.Node) bool) {
	var body *ast.BlockStmt
	switch fn := g.Func.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if !visit(n, stack) {
			return
		}
		stack = append(stack, n)
		for _, child := range children(n) {
			walk(child)
		}
		stack = stack[:len(stack)-1]
	}
	walk(body)
}

// children collects n's direct AST children.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
