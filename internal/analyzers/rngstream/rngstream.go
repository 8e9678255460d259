// Package rngstream defines an analyzer enforcing the repository's
// rng stream-derivation discipline (see parbor/internal/rng):
//
//   - In //parbor:hotpath functions, the allocating Split/SplitN
//     derivations are forbidden; the value-based Child/At
//     streams are bit-identical and never escape to the heap.
//
//   - A shard body (a function literal launched in a goroutine or
//     handed to a worker pool such as par.Map) must not draw from an
//     rng stream captured from the enclosing scope: rng.Source is not
//     safe for concurrent use, and even a data-race-free sharing
//     makes the draw order depend on scheduling. Each shard must
//     derive its own child stream (Child/At). Deriving a
//     child from a captured parent inside the shard is fine — the
//     derivations read the parent without perturbing it.
package rngstream

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"parbor/internal/analyzers/parbordir"
	"parbor/internal/analyzers/scope"
)

// Analyzer is the rngstream pass.
var Analyzer = &analysis.Analyzer{
	Name:     "rngstream",
	Doc:      "forbid allocating rng Split/SplitN in hot paths and rng stream sharing across goroutine shard bodies",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// drawMethods advance the stream state; calling one on a stream
// shared across shards is a race and a scheduling-order dependence.
var drawMethods = map[string]bool{
	"Uint64": true, "Intn": true, "Float64": true, "Bool": true,
	"ExpFloat64": true,
}

// poolCallees are callee names that run their function-literal
// argument on other goroutines (the worker pools of internal/par and
// the host's fan-outs), in addition to the go statement itself.
var poolCallees = map[string]bool{
	"Map": true, "Go": true, "forEachChip": true, "forEachActiveChip": true,
}

func run(pass *analysis.Pass) (any, error) {
	if scope.InternalPkg(pass.Pkg.Path()) == "" {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Check 1: Split/SplitN inside //parbor:hotpath functions.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if scope.InTestFile(pass, decl.Pos()) || !parbordir.FuncHas(decl, parbordir.Hotpath) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := typeutil.StaticCallee(pass.TypesInfo, call)
			if fn == nil || (fn.Name() != "Split" && fn.Name() != "SplitN") {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !isRNGSource(sig.Recv().Type()) {
				return true
			}
			pass.Reportf(call.Pos(), "rng.%s allocates its child stream; this is a //parbor:hotpath function — derive the stream with Child/At", fn.Name())
			return true
		})
	})

	// Check 2: draws on captured streams inside shard bodies.
	ins.WithStack([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || scope.InTestFile(pass, n.Pos()) {
			return true
		}
		lit := n.(*ast.FuncLit)
		if !isShardBody(pass, lit, stack) {
			return true
		}
		checkShardBody(pass, lit)
		return true
	})
	return nil, nil
}

// isShardBody reports whether lit runs on another goroutine: the
// direct function of a go statement, or an argument to a worker-pool
// callee.
func isShardBody(pass *analysis.Pass, lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.GoStmt:
		return parent.Call.Fun == lit
	case *ast.CallExpr:
		for _, arg := range parent.Args {
			if arg != lit {
				continue
			}
			if fn := typeutil.StaticCallee(pass.TypesInfo, parent); fn != nil {
				return poolCallees[fn.Name()]
			}
			// Callee unresolved (e.g. a function-typed variable):
			// fall back to the selector's textual name.
			if sel, ok := parent.Fun.(*ast.SelectorExpr); ok {
				return poolCallees[sel.Sel.Name]
			}
		}
	}
	// `go func() {...}()` parses as GoStmt -> CallExpr(Fun: lit), so
	// the go statement sits two levels up.
	if len(stack) >= 3 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == lit {
			if g, ok := stack[len(stack)-3].(*ast.GoStmt); ok {
				return g.Call == call
			}
		}
	}
	return false
}

// checkShardBody reports draw-method calls on rng streams captured
// from outside the shard body.
func checkShardBody(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals get their own visit
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !drawMethods[sel.Sel.Name] {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.ObjectOf(base).(*types.Var)
		if !ok || !isRNGSource(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the shard's own stream
		}
		pass.Reportf(call.Pos(), "shard body draws from rng stream %q captured from the enclosing scope; streams are not concurrency-safe and the draw order would depend on scheduling — derive a per-shard child (Child/At)", base.Name)
		return true
	})
}

// isRNGSource reports whether t is (a pointer to) the Source type of
// an internal rng package.
func isRNGSource(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Source" && obj.Pkg() != nil && scope.InternalPkg(obj.Pkg().Path()) == "rng"
}
