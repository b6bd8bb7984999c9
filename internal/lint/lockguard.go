package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// lockguard checks a declared lock discipline interprocedurally. A struct
// field annotated `//lint:guardedby mu` may only be touched while the
// sibling mutex `mu` of the *same* struct value is held. The check walks
// every function in execution order (flow.go) carrying a lockset keyed by
// canonical access path — c.mu.Lock() protects exactly c's guarded fields,
// not some other cache's — with branch forks joining by intersection and
// deferred unlocks keeping the lock to function exit. An unlocked access
// through a parameter becomes a *requirement* (this function must be
// entered with the lock held) that propagates through the call graph: call
// sites holding the right lock, or passing a provably fresh (unescaped,
// just-allocated) object, discharge it; requirements that survive to a
// function no in-package call site reaches are reported at the original
// access. Goroutine launches run with an empty lockset — a `go` statement
// capturing guarded state unlocked is flagged at the access, because the
// spawner's lock does not travel into the goroutine (exactly the bug class
// treecache's fill path works around by re-locking inside the closure).
var checkLockGuard = &Check{
	Name: "lockguard",
	Doc:  "//lint:guardedby fields are accessed only with their mutex held, checked across calls",
	Run:  runLockGuard,
}

// guardInfo describes one annotated field.
type guardInfo struct {
	typ   string // owning struct type, for messages
	field string
	mu    string // sibling mutex field name
}

func runLockGuard(pass *Pass) {
	guarded := collectGuarded(pass)
	if len(guarded) == 0 {
		return
	}
	lg := &lockGuard{
		pass:     pass,
		an:       pass.substrate(),
		guarded:  guarded,
		reqs:     make(map[*cgNode]map[string]lockReq),
		reported: make(map[token.Pos]bool),
	}
	for _, n := range lg.an.graph.nodes {
		if n.decl == nil {
			continue // literals are walked inline from their enclosing decl
		}
		w := &lockWalk{lg: lg, node: n, env: newPathEnv(pass.Info), held: make(map[string]bool)}
		flowWalk(n.body, w.ops())
	}
	lg.propagate()
}

// collectGuarded reads the //lint:guardedby annotations off struct fields
// and validates that each names a sync.Mutex/RWMutex field of the same
// struct — a typo'd annotation that silently guards nothing is itself a
// finding.
func collectGuarded(pass *Pass) map[*types.Var]guardInfo {
	out := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			mutexes := make(map[string]bool)
			for _, fd := range st.Fields.List {
				for _, nm := range fd.Names {
					if v, ok := pass.Info.Defs[nm].(*types.Var); ok && isMutexType(v.Type()) {
						mutexes[nm.Name] = true
					}
				}
			}
			for _, fd := range st.Fields.List {
				mu := guardAnnotation(fd)
				if mu == "" {
					continue
				}
				if !mutexes[mu] {
					pass.Reportf(fd.Pos(), "guardedby names %q, which is not a sync.Mutex/RWMutex field of %s", mu, ts.Name.Name)
					continue
				}
				for _, nm := range fd.Names {
					if v, ok := pass.Info.Defs[nm].(*types.Var); ok {
						out[v] = guardInfo{typ: ts.Name.Name, field: nm.Name, mu: mu}
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's
// `//lint:guardedby <name>` doc or trailing comment.
func guardAnnotation(fd *ast.Field) string {
	scan := func(cg *ast.CommentGroup) string {
		if cg == nil {
			return ""
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "lint:guardedby"); ok {
				if fs := strings.Fields(rest); len(fs) > 0 {
					return fs[0]
				}
			}
		}
		return ""
	}
	if s := scan(fd.Doc); s != "" {
		return s
	}
	return scan(fd.Comment)
}

func isMutexType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockOp classifies a call as a mutex operation, returning the receiver
// expression (the mutex path) and the method name, or "".
func lockOp(info *types.Info, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, ""
	}
	if !isMutexType(s.Recv()) {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// lockReq is an obligation on a function's caller: entering with slot's
// argument (plus rel fields) locked by mu, or the access at origin is a
// violation.
type lockReq struct {
	slot   int
	rel    string // field path from the parameter to the guarded struct
	mu     string
	gi     guardInfo
	origin token.Pos
}

func (r lockReq) key() string {
	return fmt.Sprintf("%d|%s|%s|%d", r.slot, r.rel, r.mu, r.origin)
}

// lockCtx is one recorded call site: resolved canonical argument paths, the
// lockset held at the call, and whether the call launches a goroutine (its
// frame starts lock-free and cannot be discharged upward).
type lockCtx struct {
	caller   *cgNode
	callee   *cgNode
	env      *pathEnv // the caller walk's env: its ids render comparable keys
	args     []apath
	argOK    []bool
	argFresh []bool
	held     map[string]bool
	isGo     bool
}

// lockGuard is the per-package check state shared by all function walks.
type lockGuard struct {
	pass     *Pass
	an       *packageAnalysis
	guarded  map[*types.Var]guardInfo
	reqs     map[*cgNode]map[string]lockReq
	ctxs     []*lockCtx
	reported map[token.Pos]bool
}

func (lg *lockGuard) addReq(n *cgNode, r lockReq) bool {
	m := lg.reqs[n]
	if m == nil {
		m = make(map[string]lockReq)
		lg.reqs[n] = m
	}
	k := r.key()
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = r
	return true
}

func (lg *lockGuard) report(origin token.Pos, gi guardInfo, goCtx bool) {
	if lg.reported[origin] {
		return
	}
	lg.reported[origin] = true
	if goCtx {
		lg.pass.Reportf(origin, "goroutine accesses %s.%s (guarded by %s) without holding the lock", gi.typ, gi.field, gi.mu)
	} else {
		lg.pass.Reportf(origin, "%s.%s is guarded by %s, and no path to this access holds the lock (//lint:guardedby)", gi.typ, gi.field, gi.mu)
	}
}

// propagate runs the requirement fixpoint over the recorded call sites, then
// reports requirements surviving on functions no in-package call reaches.
func (lg *lockGuard) propagate() {
	processed := make(map[*lockCtx]map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, ctx := range lg.ctxs {
			for k, r := range lg.reqs[ctx.callee] {
				done := processed[ctx]
				if done == nil {
					done = make(map[string]bool)
					processed[ctx] = done
				}
				if done[k] {
					continue
				}
				done[k] = true
				changed = true
				lg.handle(ctx, r)
			}
		}
	}
	hasCaller := make(map[*cgNode]bool)
	for _, ctx := range lg.ctxs {
		hasCaller[ctx.callee] = true
	}
	for n, m := range lg.reqs {
		if hasCaller[n] {
			continue // every caller was checked at its own site
		}
		for _, r := range m {
			lg.report(r.origin, r.gi, false)
		}
	}
}

// handle checks one requirement against one call site: discharged by the
// held lockset or a fresh argument, re-raised against the caller's own
// parameters, or reported.
func (lg *lockGuard) handle(ctx *lockCtx, r lockReq) {
	if r.slot >= len(ctx.args) || !ctx.argOK[r.slot] {
		return // unresolvable argument: nothing sound to say, stay quiet
	}
	if ctx.argFresh[r.slot] {
		return // the object was provably unshared at the call
	}
	ap := ctx.args[r.slot]
	fields := append([]string(nil), ap.fields...)
	if r.rel != "" {
		fields = append(fields, strings.Split(r.rel, ".")...)
	}
	lockPath := apath{root: ap.root, fields: append(append([]string(nil), fields...), r.mu)}
	if ctx.held[ctx.env.key(lockPath)] {
		return
	}
	if !ctx.isGo {
		if slot := slotOf(lg.an.slots[ctx.caller], ap.root); slot >= 0 {
			// Bound the relative path so recursive structures (n.child.child…)
			// terminate; beyond the cap we stop tracking rather than guess.
			if len(fields) <= 4 {
				lg.addReq(ctx.caller, lockReq{slot: slot, rel: strings.Join(fields, "."), mu: r.mu, gi: r.gi, origin: r.origin})
			}
			return
		}
	}
	lg.report(r.origin, r.gi, ctx.isGo)
}

// lockState is the flow state of one walk: lockset plus the pathEnv tables.
type lockState struct {
	held  map[string]bool
	alias map[types.Object]apath
	fresh map[types.Object]bool
}

type lockWalk struct {
	lg   *lockGuard
	node *cgNode // the enclosing declaration; requirements attach here
	env  *pathEnv
	held map[string]bool
	inGo bool
}

func (w *lockWalk) ops() *flowOps {
	return &flowOps{
		visit:   w.visit,
		snap:    func() any { return w.snapState() },
		restore: func(s any) { w.restoreState(s.(*lockState)) },
		merge:   w.merge,
		isPanic: func(c *ast.CallExpr) bool { return isBuiltin(w.lg.pass.Info, c, "panic") },
	}
}

func (w *lockWalk) snapState() *lockState {
	return &lockState{
		held:  maps.Clone(w.held),
		alias: maps.Clone(w.env.alias),
		fresh: maps.Clone(w.env.fresh),
	}
}

func (w *lockWalk) restoreState(s *lockState) {
	w.held = maps.Clone(s.held)
	w.env.alias = maps.Clone(s.alias)
	w.env.fresh = maps.Clone(s.fresh)
}

// merge joins branch exits by intersection: a lock (or alias, or freshness
// fact) survives only if every arm that falls through still has it.
func (w *lockWalk) merge(outs []any) {
	first := outs[0].(*lockState)
	held := maps.Clone(first.held)
	alias := maps.Clone(first.alias)
	fresh := maps.Clone(first.fresh)
	for _, o := range outs[1:] {
		s := o.(*lockState)
		for k := range held {
			if !s.held[k] {
				delete(held, k)
			}
		}
		for obj, p := range alias {
			if q, ok := s.alias[obj]; !ok || !apathEq(p, q) {
				delete(alias, obj)
			}
		}
		for obj := range fresh {
			if !s.fresh[obj] {
				delete(fresh, obj)
			}
		}
	}
	w.restoreState(&lockState{held: held, alias: alias, fresh: fresh})
}

// visit handles one leaf node from the flow walker.
func (w *lockWalk) visit(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			w.goStmt(x)
			return false
		case *ast.DeferStmt:
			w.deferStmt(x)
			return false
		case *ast.FuncLit:
			// A stored or argument literal: analyze it against the current
			// state (callbacks overwhelmingly run where they're passed), but
			// discard its effects on this path.
			w.walkLit(x, w.held, w.inGo)
			return false
		case *ast.AssignStmt:
			w.env.bindStmt(x)
		case *ast.DeclStmt:
			w.env.bindStmt(x)
		case *ast.CallExpr:
			if recv, op := lockOp(w.lg.pass.Info, x); op != "" {
				if p, ok := w.env.resolve(recv); ok {
					k := w.env.key(p)
					switch op {
					case "Lock", "RLock":
						w.held[k] = true
					default:
						delete(w.held, k)
					}
				}
				return false
			}
			w.call(x)
		case *ast.SelectorExpr:
			w.accessCheck(x)
		}
		return true
	})
}

// accessCheck inspects one selector for a guarded-field access.
func (w *lockWalk) accessCheck(x *ast.SelectorExpr) {
	sel, ok := w.lg.pass.Info.Selections[x]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	v, ok := originObj(sel.Obj()).(*types.Var)
	if !ok {
		return
	}
	gi, ok := w.lg.guarded[v]
	if !ok {
		return
	}
	base, ok := w.env.resolve(x.X)
	if !ok {
		return // base rooted in a call result: nothing sound to say
	}
	lockPath := apath{root: base.root, fields: append(append([]string(nil), base.fields...), gi.mu)}
	if w.held[w.env.key(lockPath)] {
		return
	}
	if w.env.isFresh(base) {
		return
	}
	if !w.inGo {
		if slot := slotOf(w.lg.an.slots[w.node], base.root); slot >= 0 {
			w.lg.addReq(w.node, lockReq{
				slot:   slot,
				rel:    strings.Join(base.fields, "."),
				mu:     gi.mu,
				gi:     gi,
				origin: x.Sel.Pos(),
			})
			return
		}
	}
	w.lg.report(x.Sel.Pos(), gi, w.inGo)
}

// call records the site for requirement propagation.
func (w *lockWalk) call(x *ast.CallExpr) {
	callee := w.lg.an.graph.resolveCallee(x.Fun)
	if callee == nil {
		return
	}
	w.recordCtx(x, callee, w.held, w.inGo)
}

func (w *lockWalk) recordCtx(call *ast.CallExpr, callee *cgNode, held map[string]bool, isGo bool) {
	nslots := len(w.lg.an.slots[callee])
	args := callArgSlots(w.lg.pass.Info, call, callee)
	ctx := &lockCtx{
		caller: w.node,
		callee: callee,
		env:    w.env,
		held:   maps.Clone(held),
		isGo:   isGo,
	}
	for i := 0; i < nslots; i++ {
		if i < len(args) && args[i] != nil {
			if p, ok := w.env.resolve(args[i]); ok {
				ctx.args = append(ctx.args, p)
				ctx.argOK = append(ctx.argOK, true)
				ctx.argFresh = append(ctx.argFresh, w.env.isFresh(p))
				continue
			}
		}
		ctx.args = append(ctx.args, apath{})
		ctx.argOK = append(ctx.argOK, false)
		ctx.argFresh = append(ctx.argFresh, false)
	}
	w.lg.ctxs = append(w.lg.ctxs, ctx)
}

// goStmt launches its function with an empty lockset: the spawner's locks do
// not protect the goroutine's accesses. Argument evaluation is synchronous
// and scans under the current state.
func (w *lockWalk) goStmt(x *ast.GoStmt) {
	for _, a := range x.Call.Args {
		// A literal argument (go protect(func(){…})) executes inside the
		// goroutine; plain arguments evaluate synchronously.
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			w.walkLit(lit, nil, true)
			continue
		}
		w.visit(a)
	}
	if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, nil, true)
		return
	}
	if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
		w.visit(sel.X)
	}
	if callee := w.lg.an.graph.resolveCallee(x.Call.Fun); callee != nil {
		w.recordCtx(x.Call, callee, nil, true)
	}
}

// deferStmt: a deferred unlock keeps the lock held to function exit (state
// untouched); a deferred literal or call is approximated as running under
// the state at the defer site.
func (w *lockWalk) deferStmt(x *ast.DeferStmt) {
	if _, op := lockOp(w.lg.pass.Info, x.Call); op != "" {
		return
	}
	for _, a := range x.Call.Args {
		w.visit(a)
	}
	if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, w.held, w.inGo)
		return
	}
	if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
		w.visit(sel.X)
	}
	if callee := w.lg.an.graph.resolveCallee(x.Call.Fun); callee != nil {
		w.recordCtx(x.Call, callee, w.held, w.inGo)
	}
}

// walkLit analyzes a literal's body under the given lockset (nil = empty)
// and goroutine flag, restoring the outer state afterwards.
func (w *lockWalk) walkLit(lit *ast.FuncLit, held map[string]bool, inGo bool) {
	saved := w.snapState()
	savedGo := w.inGo
	w.held = maps.Clone(held)
	if w.held == nil {
		w.held = make(map[string]bool)
	}
	w.inGo = inGo
	flowWalk(lit.Body, w.ops())
	w.restoreState(saved)
	w.inGo = savedGo
}
