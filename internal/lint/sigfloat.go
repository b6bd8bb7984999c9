package lint

import (
	"go/ast"
	"go/types"
)

// checkSigFloat guards the canonical-spelling invariant of the cache-key
// layers (PR3's fuzz-caught HiInc collision): signatures and cache keys must
// spell floats through relation.SigNum, the single canonical formatter both
// the conjunct-bitmap cache and the query-signature layer share. Ad-hoc
// fmt/strconv float formatting in a signature path can collapse distinct
// predicates (-0 vs 0, 1e15 vs integer spelling, ±Inf) into one cache slot —
// or split identical ones across two.
var checkSigFloat = &Check{
	Name: "sigfloat",
	Doc:  "no fmt/strconv float formatting in signature or cache-key construction; use relation.SigNum",
	Run:  runSigFloat,
}

func runSigFloat(pass *Pass) {
	eachFuncDecl(pass.Package, func(decl *ast.FuncDecl) {
		if !pass.Cfg.SigFuncs.MatchString(decl.Name.Name) {
			return
		}
		if fn, ok := pass.Info.Defs[decl.Name].(*types.Func); ok &&
			matchFunc(qualifiedName(fn), pass.Cfg.SigNumFuncs) {
			return // the canonical formatter itself
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "fmt":
				for _, arg := range call.Args {
					if tv, ok := pass.Info.Types[arg]; ok && isFloat(tv.Type) {
						pass.Reportf(call.Pos(),
							"fmt.%s formats a float in a signature/cache-key path; spell it with relation.SigNum",
							fn.Name())
						break
					}
				}
			case "strconv":
				if fn.Name() == "FormatFloat" || fn.Name() == "AppendFloat" {
					pass.Reportf(call.Pos(),
						"strconv.%s in a signature/cache-key path; spell floats with relation.SigNum",
						fn.Name())
				}
			}
			return true
		})
	})
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
