package lint

import (
	"go/ast"
	"go/types"
)

// checkSegGuard guards the segmented-store immutability boundary (PR8): a
// sealed segment's column pages — the dictionary-code and dictionary slices
// behind CatColumn — are shared by every published snapshot and conjunct
// bitmap that was built over them. Inside internal/relation the
// extension paths write only into unpublished spare capacity under the
// relation mutex; anywhere else, a write, append, or copy through those
// fields tears concurrent readers. segguard flags the mutating uses (reads
// are the normal case and stay unrestricted).
var checkSegGuard = &Check{
	Name: "segguard",
	Doc:  "sealed-segment column pages are written only inside internal/relation",
	Run:  runSegGuard,
}

func runSegGuard(pass *Pass) {
	cfg := pass.Cfg
	if len(cfg.SegFields) == 0 || matchPkg(pass.Path, cfg.SegPkgs) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, name := segFieldTarget(pass, lhs); sel != nil {
						pass.Reportf(sel.Sel.Pos(),
							"write through %s outside internal/relation mutates a shared segment page; use the relation's accessors", name)
					}
				}
			case *ast.IncDecStmt:
				if sel, name := segFieldTarget(pass, n.X); sel != nil {
					pass.Reportf(sel.Sel.Pos(),
						"write through %s outside internal/relation mutates a shared segment page; use the relation's accessors", name)
				}
			case *ast.CallExpr:
				if len(n.Args) == 0 {
					return true
				}
				verb := ""
				switch {
				case isBuiltin(pass.Info, n, "append"):
					// Appending to a page slice can write into the sealed
					// backing's spare capacity the relation reserves for its
					// own extension path.
					verb = "append to"
				case isBuiltin(pass.Info, n, "copy"), isBuiltin(pass.Info, n, "clear"):
					verb = "copy into"
					if isBuiltin(pass.Info, n, "clear") {
						verb = "clear of"
					}
				default:
					return true
				}
				if sel, name := segFieldTarget(pass, n.Args[0]); sel != nil {
					pass.Reportf(sel.Sel.Pos(),
						"%s %s outside internal/relation mutates a shared segment page; build a private copy instead", verb, name)
				}
			}
			return true
		})
	}
}

// segFieldTarget unwraps an assignment target or builtin destination down to
// the selector it writes through (x.Codes[i], x.Dict[a:b], (*p).Codes) and
// reports it when the selected field is one of the guarded segment-page
// fields ("Type.Field" in Config.SegFields).
func segFieldTarget(pass *Pass, e ast.Expr) (*ast.SelectorExpr, string) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			s, ok := pass.Info.Selections[t]
			if !ok || s.Kind() != types.FieldVal {
				return nil, ""
			}
			named, ok := derefNamed(s.Recv())
			if !ok {
				return nil, ""
			}
			name := named.Obj().Name() + "." + t.Sel.Name
			if nameIn(name, pass.Cfg.SegFields) {
				return t, name
			}
			return nil, ""
		default:
			return nil, ""
		}
	}
}
