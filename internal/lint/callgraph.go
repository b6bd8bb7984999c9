package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// callgraph.go builds the per-package call graph the deep checks
// (frozenguard, lockguard) and the effect summaries (summary.go) walk. Nodes
// are function declarations and function literals; edges are resolved call
// sites plus "reference" edges for functions taken as values (method values,
// callbacks), which the analyses treat as potential calls. Resolution is
// go/types-based, so methods, lit-bound locals (x := func(){…}; x()), and
// package-level functions all land on the right node; interface method calls
// and cross-package callees stay out of the graph and are assumed
// effect-free (DESIGN.md §16 records the approximation).

type cgKind int

const (
	cgCall  cgKind = iota // plain call
	cgGo                  // go f(...)
	cgDefer               // defer f(...)
	cgRef                 // f taken as a value (method value, callback arg)
)

// cgNode is one function in the package call graph.
type cgNode struct {
	decl      *ast.FuncDecl // non-nil for declared functions
	lit       *ast.FuncLit  // non-nil for function literals
	obj       types.Object  // the declared func, or the variable a literal is bound to
	body      *ast.BlockStmt
	name      string  // display name ("Type.Method", "f", "f$1")
	enclosing *cgNode // for literals: the node whose body contains them
	out       []*cgEdge
	in        []*cgEdge
}

// cgEdge is one call or reference site.
type cgEdge struct {
	caller *cgNode
	callee *cgNode
	site   *ast.CallExpr // nil for cgRef edges
	pos    token.Pos
	kind   cgKind
}

// callGraph is the package-wide graph plus its resolution indexes.
type callGraph struct {
	pass  *Pass
	nodes []*cgNode
	byObj map[types.Object]*cgNode
	byLit map[*ast.FuncLit]*cgNode
}

// buildCallGraph constructs the graph for the pass's package.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		pass:  pass,
		byObj: make(map[types.Object]*cgNode),
		byLit: make(map[*ast.FuncLit]*cgNode),
	}
	// Pass 1: create nodes for declarations, then for every literal nested
	// inside them (tracking the enclosing node), and bind literals assigned
	// to variables so calls through the variable resolve.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &cgNode{decl: fd, body: fd.Body, name: funcDeclName(fd)}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				n.obj = obj
				g.byObj[obj] = n
			}
			g.nodes = append(g.nodes, n)
			g.addLits(n, fd.Body)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g.bindLit(n)
			return true
		})
	}
	// Pass 2: resolve the edges of every node's own body.
	for _, n := range g.nodes {
		g.buildEdges(n)
	}
	return g
}

// addLits creates a node for every function literal in body, nesting-aware:
// a literal inside another literal gets the inner one as its enclosure.
func (g *callGraph) addLits(owner *cgNode, body *ast.BlockStmt) {
	ord := 0
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ord++
		child := &cgNode{
			lit:       lit,
			body:      lit.Body,
			name:      fmt.Sprintf("%s$%d", owner.name, ord),
			enclosing: owner,
		}
		g.byLit[lit] = child
		g.nodes = append(g.nodes, child)
		g.addLits(child, lit.Body)
		return false
	})
}

// bindLit registers literal-to-variable bindings (x := func(){…},
// var x = func(){…}, x = func(){…}) so calls through the variable resolve to
// the literal's node. Rebinding keeps the last literal — an approximation.
func (g *callGraph) bindLit(n ast.Node) {
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := g.pass.Info.Defs[id]
		if obj == nil {
			obj = g.pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if node := g.byLit[lit]; node != nil {
			node.obj = obj
			g.byObj[obj] = node
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Rhs {
				bind(n.Lhs[i], n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if len(n.Names) == len(n.Values) {
			for i := range n.Values {
				bind(n.Names[i], n.Values[i])
			}
		}
	}
}

// inspectOwn visits the node's own body, skipping nested function-literal
// bodies (each literal is its own node); the literal expression itself is
// still handed to f so launch sites stay visible.
func (n *cgNode) inspectOwn(f func(ast.Node) bool) {
	ast.Inspect(n.body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			f(lit)
			return false
		}
		return f(x)
	})
}

// resolveCallee maps a call's Fun expression to an in-graph node: a literal
// called inline, a declared function or method, or a lit-bound variable.
// Returns nil for builtins, interface methods, function-typed fields, and
// cross-package callees.
func (g *callGraph) resolveCallee(fun ast.Expr) *cgNode {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		return g.byLit[fun]
	case *ast.Ident:
		if obj := g.pass.Info.Uses[fun]; obj != nil {
			return g.byObj[originObj(obj)]
		}
	case *ast.SelectorExpr:
		if obj := g.pass.Info.Uses[fun.Sel]; obj != nil {
			return g.byObj[originObj(obj)]
		}
	case *ast.IndexExpr: // generic instantiation f[T](…)
		return g.resolveCallee(fun.X)
	case *ast.IndexListExpr:
		return g.resolveCallee(fun.X)
	}
	return nil
}

// originObj folds instantiated generic objects back onto their declaration:
// a method used through Cache[tree] is the same node as the one declared on
// Cache[V].
func originObj(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// buildEdges resolves the call and reference sites in n's own body.
func (g *callGraph) buildEdges(n *cgNode) {
	kinds := make(map[*ast.CallExpr]cgKind)
	inCall := make(map[ast.Expr]bool)
	skipSel := make(map[*ast.Ident]bool)
	n.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			kinds[x.Call] = cgGo
		case *ast.DeferStmt:
			kinds[x.Call] = cgDefer
		case *ast.CallExpr:
			inCall[ast.Unparen(x.Fun)] = true
			if callee := g.resolveCallee(x.Fun); callee != nil {
				g.addEdge(n, callee, x, kinds[x])
			}
		case *ast.SelectorExpr:
			skipSel[x.Sel] = true
			if !inCall[x] {
				// Method value (v := x.M) or package-qualified function used
				// as a value: a potential call through the stored value.
				if obj := g.pass.Info.Uses[x.Sel]; obj != nil {
					if callee := g.byObj[originObj(obj)]; callee != nil {
						g.refEdge(n, callee, x.Sel.Pos())
					}
				}
			}
		case *ast.FuncLit:
			if !inCall[ast.Expr(x)] {
				// A literal stored or passed without being called here.
				if callee := g.byLit[x]; callee != nil {
					g.refEdge(n, callee, x.Pos())
				}
			}
		case *ast.Ident:
			if skipSel[x] || inCall[ast.Expr(x)] {
				return true
			}
			if obj := g.pass.Info.Uses[x]; obj != nil {
				if callee := g.byObj[originObj(obj)]; callee != nil {
					g.refEdge(n, callee, x.Pos())
				}
			}
		}
		return true
	})
}

func (g *callGraph) addEdge(caller, callee *cgNode, site *ast.CallExpr, kind cgKind) {
	e := &cgEdge{caller: caller, callee: callee, site: site, pos: site.Pos(), kind: kind}
	caller.out = append(caller.out, e)
	callee.in = append(callee.in, e)
}

func (g *callGraph) refEdge(caller, callee *cgNode, pos token.Pos) {
	e := &cgEdge{caller: caller, callee: callee, pos: pos, kind: cgRef}
	caller.out = append(caller.out, e)
	callee.in = append(callee.in, e)
}
