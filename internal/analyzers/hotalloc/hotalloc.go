// Package hotalloc defines an analyzer that turns the repository's
// zero-allocation hot-loop guarantee (BenchmarkPassHotLoop's 0
// allocs/op, TestPassZeroAllocsSteadyState) from a point measurement
// into a structural one. In functions annotated //parbor:hotpath it
// flags the allocating constructs the PR 4 rework outlawed:
//
//   - function literals (captured variables escape to the heap),
//   - map literals and make(map[...]...),
//   - fmt.Sprint/Sprintf/Sprintln (always allocate their result;
//     fmt.Errorf on cold error-return paths is deliberately allowed),
//   - explicit conversions of concrete values to interface types,
//   - append inside a loop to a slice declared in the function
//     without preallocated capacity.
//
// It also polices the mask-plane construction boundary introduced
// with the word-wide read path: //parbor:planebuild marks
// once-per-materialization plane construction, and a //parbor:hotpath
// function calling one (re-building planes per read) is a diagnostic:
// planes are reached through a cold memoizing accessor, so the build
// amortizes to once per row. A function annotated both hotpath and
// planebuild is contradictory and flagged outright.
//
// The benchmark gate still catches what escapes analysis; the
// analyzer catches it at review time and names the construct.
package hotalloc

import (
	"go/ast"
	"go/constant"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"parbor/internal/analyzers/parbordir"
	"parbor/internal/analyzers/scope"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "forbid allocating constructs in //parbor:hotpath functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var fmtAllocators = map[string]bool{
	"Sprint": true, "Sprintf": true, "Sprintln": true,
}

func run(pass *analysis.Pass) (any, error) {
	if scope.InternalPkg(pass.Pkg.Path()) == "" {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	// First pass: resolve every //parbor:planebuild function of the
	// package, so hot-path call sites can be checked against the set.
	builders := make(map[types.Object]bool)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if parbordir.FuncHas(decl, parbordir.Planebuild) {
			builders[pass.TypesInfo.ObjectOf(decl.Name)] = true
		}
	})
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || scope.InTestFile(pass, decl.Pos()) || !parbordir.FuncHas(decl, parbordir.Hotpath) {
			return
		}
		if parbordir.FuncHas(decl, parbordir.Planebuild) {
			pass.Reportf(decl.Pos(), "conflicting //parbor:hotpath and //parbor:planebuild on %s: plane construction runs once per materialization and cannot also be the per-read hot loop", decl.Name.Name)
			return // the directives contradict; further checks would guess which one governs
		}
		checkHotFunc(pass, decl)
		checkBuilderCalls(pass, decl, builders)
	})
	return nil, nil
}

// checkBuilderCalls flags static calls from a hot function to
// //parbor:planebuild functions of the same package: rebuilding mask
// planes per read forfeits the once-per-materialization amortization
// the read path's speed rests on.
func checkBuilderCalls(pass *analysis.Pass, decl *ast.FuncDecl, builders map[types.Object]bool) {
	if len(builders) == 0 {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := typeutil.StaticCallee(pass.TypesInfo, call)
		if fn == nil || !builders[types.Object(fn)] {
			return true
		}
		pass.Reportf(call.Pos(), "//parbor:hotpath function %s calls //parbor:planebuild function %s: planes are built once at row materialization, behind a cold memoizing accessor", decl.Name.Name, fn.Name())
		return true
	})
}

func checkHotFunc(pass *analysis.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in //parbor:hotpath function %s: captured variables escape to the heap; pre-bind a method value at construction instead", decl.Name.Name)
			return false // its body is cold until invoked; one report suffices
		case *ast.CompositeLit:
			if _, ok := pass.TypesInfo.TypeOf(n).Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(), "map literal in //parbor:hotpath function %s allocates; hoist it to setup or reuse host scratch", decl.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, decl, n)
		case *ast.ForStmt:
			checkLoopAppends(pass, decl, n.Body)
		case *ast.RangeStmt:
			checkLoopAppends(pass, decl, n.Body)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, decl *ast.FuncDecl, call *ast.CallExpr) {
	// Explicit conversion to an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) && !types.IsInterface(pass.TypesInfo.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion to interface type %s in //parbor:hotpath function %s boxes its operand on the heap", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), decl.Name.Name)
		}
		return
	}
	// make(map[...]...).
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "make" && len(call.Args) >= 1 {
			if _, ok := pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Map); ok {
				pass.Reportf(call.Pos(), "make(map) in //parbor:hotpath function %s allocates; hoist it to setup and clear() per pass", decl.Name.Name)
			}
		}
		return
	}
	// fmt.Sprint* family.
	if fn := typeutil.StaticCallee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" && fmtAllocators[fn.Name()] {
			pass.Reportf(call.Pos(), "fmt.%s in //parbor:hotpath function %s allocates its result (and boxes its arguments); format off the hot path", fn.Name(), decl.Name.Name)
		}
	}
}

// checkLoopAppends flags `s = append(s, ...)` inside a loop when s is
// a local of the hot function declared without preallocated capacity:
// steady-state growth reallocations are exactly what the pass loop
// must not do.
func checkLoopAppends(pass *analysis.Pass, decl *ast.FuncDecl, loopBody *ast.BlockStmt) {
	ast.Inspect(loopBody, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		target, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok {
			return true
		} else if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(target)
		if obj == nil || obj.Pos() < decl.Pos() || obj.Pos() > decl.End() {
			return true // parameter, field shorthand, or package-level: caller's contract
		}
		if declaredWithoutCapacity(pass, decl, obj) {
			pass.Reportf(as.Pos(), "append to %s inside a loop of //parbor:hotpath function %s, but %s is declared without capacity; preallocate (make with cap, or reuse host scratch via [:0])", target.Name, decl.Name.Name, target.Name)
		}
		return true
	})
}

// declaredWithoutCapacity finds obj's declaration inside decl and
// reports whether it pins no capacity: `var s []T`, `s := []T{}`, or
// `s := make([]T, 0)`. Declarations from calls, slicings (scratch[:0])
// or non-empty literals are treated as preallocated.
func declaredWithoutCapacity(pass *analysis.Pass, decl *ast.FuncDecl, obj types.Object) bool {
	bare := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec: // var s []T  /  var s = <expr>
			for i, name := range n.Names {
				if pass.TypesInfo.ObjectOf(name) != obj {
					continue
				}
				if len(n.Values) == 0 {
					bare = true
				} else if i < len(n.Values) {
					bare = zeroCapExpr(pass, n.Values[i])
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.ObjectOf(id) != obj {
					continue
				}
				if i < len(n.Rhs) {
					bare = zeroCapExpr(pass, n.Rhs[i])
				}
			}
		}
		return true
	})
	return bare
}

// zeroCapExpr reports whether expr pins no slice capacity: an empty
// composite literal, a nil literal, or make(..., 0) without a cap
// argument.
func zeroCapExpr(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.Ident:
		_, isNil := pass.TypesInfo.ObjectOf(e).(*types.Nil)
		return isNil
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
		if !ok || b.Name() != "make" || len(e.Args) != 2 {
			return false // make with an explicit cap (3 args) preallocates
		}
		tv, ok := pass.TypesInfo.Types[e.Args[1]]
		return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
	}
	return false
}
