package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function, method, or imported function), or nil for builtins,
// function-typed variables, conversions, and anything else.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins and universe functions).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// qualifiedName renders pkgpath.Func or pkgpath.Type.Method for matching
// against Config function patterns.
func qualifiedName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + name
	}
	return name
}

// derefNamed unwraps one pointer level and reports the named type beneath.
func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// funcDeclName returns the declared function's qualified name within its
// package ("Func" or "Type.Method").
func funcDeclName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if named, ok := recvTypeName(fd.Recv.List[0].Type); ok {
			name = named + "." + name
		}
	}
	return name
}

func recvTypeName(t ast.Expr) (string, bool) {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver Type[T]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name, true
	}
	return "", false
}

// eachFuncDecl calls fn for every function declaration with a body in the
// package; function literals are scanned as part of their declaration.
func eachFuncDecl(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
