// This file holds lockguard's flow machinery: canonical paths for
// lock and field-base expressions, fresh-value detection for the
// constructor exemption, and a forward must-analysis worklist over
// golang.org/x/tools/go/cfg basic blocks.
//
// The analysis was specified against go/ssa, but the only offline
// source of x/tools in this build environment — the Go toolchain's own
// cmd/vendor tree, the route PR 5 vendored the analysis framework
// from — ships go/cfg and not go/ssa. The analyses here are therefore
// built as abstract interpretation over the syntactic CFG: blocks are
// lists of statements and expressions in evaluation order, states
// propagate along Succs edges, and joins intersect (must-hold
// semantics). Within one CFG node, effects and checks are applied in
// ast.Inspect preorder, which matches evaluation order for the
// statement shapes the tree uses; the cases where it diverges
// (short-circuit operators evaluating a lock call conditionally) do
// not arise for lock manipulation in practice and would only make the
// analysis conservative, never silent.

package lockguard

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/cfg"
)

// pathOf renders an expression as a canonical dotted path keyed by
// resolved types.Objects, so `m.stateMu` means the same thing at a
// Lock site and at a field access even under shadowing, and two
// different locals named `w` can never alias. Only chains of
// identifiers and field selections (through any number of pointer
// dereferences) are trackable; anything else — an index expression, a
// call result — reports ok=false and the caller skips the site.
func pathOf(info *types.Info, e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return "", false
		}
		return objKey(obj), true
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			base, ok := pathOf(info, e.X)
			if !ok {
				return "", false
			}
			return base + "." + objKey(sel.Obj()), true
		}
		// Qualified identifier (pkg.Var): the selection map has no
		// entry; the Sel identifier resolves directly.
		obj := info.ObjectOf(e.Sel)
		if obj == nil {
			return "", false
		}
		return objKey(obj), true
	case *ast.ParenExpr:
		return pathOf(info, e.X)
	case *ast.StarExpr:
		// (*p).mu and p.mu guard the same mutex.
		return pathOf(info, e.X)
	}
	return "", false
}

// objKey is the canonical rendering of one object. The position pins
// the defining occurrence, so identically named objects in different
// scopes stay distinct.
func objKey(obj types.Object) string {
	return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
}

// freshObjects returns the local variables of body that only ever
// hold values this function created itself — composite literals,
// new(T) — and so cannot yet be shared with another goroutine. Guard
// and atomic-access discipline does not apply to them: this is the
// constructor exemption. A variable that is even once assigned from
// anywhere else (a parameter, a call result, another variable) is not
// fresh.
func freshObjects(info *types.Info, body ast.Node) map[types.Object]bool {
	freshDefs := make(map[types.Object]int)
	otherDefs := make(map[types.Object]int)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if isFreshExpr(rhs) {
			freshDefs[obj]++
		} else {
			otherDefs[obj]++
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			} else {
				// Multi-value unpacking comes from a call: nothing fresh.
				for _, l := range n.Lhs {
					record(l, nil)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				}
				// A bare `var x T` declares a zero value: fresh until
				// some other definition says otherwise, but only useful
				// when followed by field stores, which the analyzers
				// treat as accesses on a fresh base anyway.
			}
		case *ast.UnaryExpr:
			// Taking the address of a local and handing it out does not
			// un-fresh it here; the exemption covers the constructor
			// pattern `m := &T{...}; m.f = v; return m`, where the value
			// escapes only by being returned.
		}
		return true
	})
	fresh := make(map[types.Object]bool)
	for obj, n := range freshDefs {
		if n > 0 && otherDefs[obj] == 0 {
			fresh[obj] = true
		}
	}
	return fresh
}

// isFreshExpr reports whether e constructs a brand-new value.
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			_, lit := e.X.(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	case *ast.ParenExpr:
		return isFreshExpr(e.X)
	}
	return false
}

// freshBase reports whether the base of a field access is a fresh
// local: the expression reduces (through selections, derefs and
// parens) to an identifier in fresh.
func freshBase(info *types.Info, fresh map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			return obj != nil && fresh[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// heldSet is a must-hold set (of lock paths, for lockguard) flowing
// through the CFG. States are persistent snapshots: Transfer works on
// a scratch copy and Snapshot interns it.
type heldSet map[string]bool

// equal reports set equality.
func (s heldSet) equal(t heldSet) bool {
	if len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// clone copies the state.
func (s heldSet) clone() heldSet {
	out := make(heldSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// intersect returns the meet of two must-hold states.
func (s heldSet) intersect(t heldSet) heldSet {
	out := make(heldSet)
	for k := range s {
		if t[k] {
			out[k] = true
		}
	}
	return out
}

// forward runs a forward must-analysis over g to fixpoint and returns
// the state at entry of every reachable block. entry seeds Blocks[0];
// transfer must return the block's exit state without mutating its
// argument beyond clone semantics (it receives a private copy).
//
// The meet is set intersection and transfer functions only add or
// remove finitely many facts, so the chain height is bounded and the
// worklist terminates.
func forward(g *cfg.CFG, entry heldSet, transfer func(b *cfg.Block, in heldSet) heldSet) []heldSet {
	in := make([]heldSet, len(g.Blocks))
	in[0] = entry
	work := []int32{0}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		b := g.Blocks[idx]
		out := transfer(b, in[idx].clone())
		for _, succ := range b.Succs {
			var next heldSet
			if in[succ.Index] == nil {
				next = out.clone()
			} else {
				next = in[succ.Index].intersect(out)
				if next.equal(in[succ.Index]) {
					continue
				}
			}
			in[succ.Index] = next
			work = append(work, succ.Index)
		}
	}
	return in
}
