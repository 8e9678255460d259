// Package ctxthread defines an analyzer enforcing the repository's
// context-threading contract in the library packages that drive
// row/chip loops (scope.CtxThreaded):
//
//   - context.Background()/context.TODO() may not appear in library
//     code at all. Every test operation takes a context first, so a
//     root context built inside the library either hides a
//     cancellation gap or shadows a context the function already has.
//
//   - An exported function that takes a context.Context must
//     actually use it (pass it on, or check Done/Err).
//
//   - An exported function without a context parameter must not loop
//     over hardware-driving pass methods: long row/chip loops are
//     exactly the work SIGINT and -timeout need to be able to stop.
//     The pass methods all take a context first, so this catches the
//     loop that feeds them one it did not receive (a stored context).
package ctxthread

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"parbor/internal/analyzers/scope"
)

// Analyzer is the ctxthread pass.
var Analyzer = &analysis.Analyzer{
	Name:     "ctxthread",
	Doc:      "require context threading through library entry points that loop over rows/chips",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// passMethods are the hardware-driving entry points whose callers
// must be cancellable: the test host's pass/read methods and the
// online scheduler's epoch, all context-first.
var passMethods = map[string]bool{
	"Pass":        true,
	"Probe":       true,
	"Verify":      true,
	"FullPass":    true,
	"ReadRowInto": true,
	"RunEpoch":    true,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.CtxThreaded[scope.InternalPkg(pass.Pkg.Path())] {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || scope.InTestFile(pass, decl.Pos()) {
			return
		}
		ctxParam := contextParam(pass, decl)
		checkBackground(pass, decl, ctxParam)
		if decl.Name.IsExported() {
			if ctxParam != nil {
				checkCtxUsed(pass, decl, ctxParam)
			} else {
				checkLoopNeedsCtx(pass, decl)
			}
		}
	})
	return nil, nil
}

// contextParam returns the first parameter of type context.Context,
// or nil.
func contextParam(pass *analysis.Pass, decl *ast.FuncDecl) *types.Var {
	if decl.Type.Params == nil {
		return nil
	}
	for _, field := range decl.Type.Params.List {
		if !isContext(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj, ok := pass.TypesInfo.ObjectOf(name).(*types.Var); ok {
				return obj
			}
		}
	}
	return nil
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkBackground flags every context.Background()/TODO() call.
func checkBackground(pass *analysis.Pass, decl *ast.FuncDecl, ctxParam *types.Var) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := typeutil.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" || (fn.Name() != "Background" && fn.Name() != "TODO") {
			return true
		}
		if ctxParam != nil {
			pass.Reportf(call.Pos(), "context.%s ignores the function's %s parameter; thread it instead", fn.Name(), ctxParam.Name())
		} else {
			pass.Reportf(call.Pos(), "context.%s in library code; accept a context.Context instead", fn.Name())
		}
		return true
	})
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := typeutil.StaticCallee(pass.TypesInfo, call); fn != nil {
		return fn.Name()
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkCtxUsed flags an exported function whose context parameter is
// never referenced.
func checkCtxUsed(pass *analysis.Pass, decl *ast.FuncDecl, ctxParam *types.Var) {
	used := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == ctxParam {
			used = true
		}
		return !used
	})
	if !used {
		pass.Reportf(decl.Name.Pos(), "%s accepts a context.Context but never uses it; pass it on or check ctx.Err()", decl.Name.Name)
	}
}

// checkLoopNeedsCtx flags an exported ctx-less function whose loops
// call hardware-driving pass methods.
func checkLoopNeedsCtx(pass *analysis.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		reported := false
		ast.Inspect(body, func(n ast.Node) bool {
			if reported {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(pass, call)
			if !passMethods[name] || !isPassReceiver(pass, call) {
				return true
			}
			pass.Reportf(decl.Name.Pos(), "exported %s loops over %s without accepting a context.Context; row/chip loops must be cancellable", decl.Name.Name, name)
			reported = true
			return false
		})
		return !reported
	})
}

// isPassReceiver reports whether the call's receiver (or the function
// itself, for package-level callees) belongs to an internal package —
// distinguishing host/scheduler pass methods from identically named
// methods on unrelated types.
func isPassReceiver(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := typeutil.StaticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return scope.InternalPkg(fn.Pkg().Path()) != ""
}
