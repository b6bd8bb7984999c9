package lint

import (
	"go/ast"
	"go/types"
)

// checkHotTime guards the clock discipline of the categorizer hot path
// (PR4's timer-starvation fix): deadline handling in the hot packages goes
// through the approved soft-budget poll (category.ctxExpired), which reads
// the wall clock against ctx.Deadline precisely because runtime timers
// starve under a CPU-saturated scheduler. Ad-hoc time.Now/time.Since/timer
// construction in these packages either duplicates that subtlety wrongly or
// adds per-row clock reads to loops that run millions of times. Deliberate
// one-shot instrumentation is suppressed inline with a recorded reason.
var checkHotTime = &Check{
	Name: "hottime",
	Doc:  "no raw time.Now/time.Since/timers in categorizer hot packages outside approved soft-budget sites",
	Run:  runHotTime,
}

var hotTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runHotTime(pass *Pass) {
	if !matchPkg(pass.Path, pass.Cfg.HotPkgs) {
		return
	}
	eachFuncDecl(pass.Package, func(decl *ast.FuncDecl) {
		if fn, ok := pass.Info.Defs[decl.Name].(*types.Func); ok &&
			matchFunc(qualifiedName(fn), pass.Cfg.HotApprovedFuncs) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn != nil && funcPkgPath(fn) == "time" && hotTimeFuncs[fn.Name()] &&
				fn.Type().(*types.Signature).Recv() == nil { // t.After(u) compares, it reads no clock
				pass.Reportf(call.Pos(),
					"raw time.%s in hot-path package %s; poll deadlines via ctxExpired (suppress with a reason if this is deliberate one-shot instrumentation)",
					fn.Name(), pass.Pkg.Name())
			}
			return true
		})
	})
}
