// Package lockguard defines a flow-sensitive analyzer enforcing the
// //parbor:guardedby <mu> struct-field directive: every access to an
// annotated field must happen while the named sibling mutex is held.
//
// The fleet scheduler's bit-identical drain/resume soak and the log
// sink's degradation state machine are mutex protocols; before this
// pass they held only by convention and -race luck. The analyzer
// walks each function's control-flow graph (see flow.go for why
// CFG rather than SSA) tracking a must-hold set of lock paths:
// X.mu.Lock()/RLock() adds X.mu, Unlock()/RUnlock() removes it, defer
// X.mu.Unlock() keeps it held to function exit, and branch joins
// intersect — so unlock-then-relock sequences (the Drain pattern) and
// early-unlock error paths are tracked exactly, not approximated.
//
// Two exemptions keep the real tree's idioms expressible:
//
//   - Constructor freshness: accesses through a local that only ever
//     holds values the function built itself (&T{...}, new(T)) are
//     exempt — the value is not yet shared, so there is nothing to
//     race with.
//
//   - The *Locked suffix convention: a method named fooLocked declares
//     "my caller holds the lock". Its body is analyzed assuming its
//     required guards are held, and the requirement — computed from
//     the fields its body (transitively, through other *Locked
//     methods on the same receiver) touches — is enforced at every
//     call site instead.
//
// //parbor:unsync <justification> opts a line or function out; the
// justification is mandatory.
package lockguard

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"parbor/internal/analyzers/parbordir"
	"parbor/internal/analyzers/scope"
)

// Analyzer is the lockguard pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockguard",
	Doc:      "enforce //parbor:guardedby mutex discipline flow-sensitively over each function's CFG",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      run,
}

// lockedSuffix marks methods whose callers hold the lock.
const lockedSuffix = "Locked"

// guardInfo ties one annotated field to its guarding mutex field.
type guardInfo struct {
	guard *types.Var // the mutex field of the same struct
}

// checker carries the per-package analysis state.
type checker struct {
	pass   *analysis.Pass
	cfgs   *ctrlflow.CFGs
	dir    *parbordir.Index
	guards map[*types.Var]guardInfo // annotated field -> its mutex
	// requires maps each *Locked method to the receiver-relative guard
	// fields its body needs held on entry.
	requires map[*types.Func]map[*types.Var]bool
	// methods lists the package's *Locked methods for the fixpoint.
	methods []*ast.FuncDecl
}

func run(pass *analysis.Pass) (any, error) {
	var libFiles []*ast.File
	for _, f := range pass.Files {
		if !scope.InTestFile(pass, f.Pos()) {
			libFiles = append(libFiles, f)
		}
	}
	c := &checker{
		pass:     pass,
		cfgs:     pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs),
		dir:      parbordir.NewIndex(pass.Fset, libFiles),
		guards:   make(map[*types.Var]guardInfo),
		requires: make(map[*types.Func]map[*types.Var]bool),
	}
	// A bare //parbor:unsync directive is itself a diagnostic.
	for _, pos := range c.dir.BarePositions(parbordir.Unsync) {
		pass.Reportf(pos, "//parbor:unsync needs a justification: state why this unsynchronized access cannot race")
	}
	for _, f := range libFiles {
		c.collectGuards(f)
	}
	if len(c.guards) == 0 {
		return nil, nil
	}
	for _, f := range libFiles {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil && c.isLockedMethod(fd) {
				c.methods = append(c.methods, fd)
				c.requires[c.funcObj(fd)] = make(map[*types.Var]bool)
			}
		}
	}
	c.fixpointRequires()
	for _, f := range libFiles {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
		// Function literals get their own CFGs and an empty entry
		// state: a closure may run on any goroutine at any time, so it
		// must take the lock itself.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				if g := c.cfgs.FuncLit(lit); g != nil {
					c.analyze(g, lit.Body, heldSet{}, "", nil)
				}
			}
			return true
		})
	}
	return nil, nil
}

// collectGuards parses //parbor:guardedby directives off struct
// fields, validating the named guard resolves to a sibling mutex.
func (c *checker) collectGuards(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			rawArg, found := parbordir.FieldArg(field, parbordir.Guardedby)
			if !found {
				continue
			}
			// The mutex name is the first token; anything after it is
			// free commentary ("guardedby mu — nil after close").
			args := strings.Fields(rawArg)
			if len(args) == 0 {
				c.pass.Reportf(field.Pos(), "//parbor:guardedby needs the guarding mutex field name")
				continue
			}
			arg := args[0]
			guard := findField(c.pass.TypesInfo, st, arg)
			if guard == nil {
				c.pass.Reportf(field.Pos(), "//parbor:guardedby %s names no field of this struct", arg)
				continue
			}
			if !isMutex(guard.Type()) {
				c.pass.Reportf(field.Pos(), "//parbor:guardedby %s: field is not a sync.Mutex or sync.RWMutex", arg)
				continue
			}
			for _, name := range field.Names {
				if obj, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
					c.guards[obj] = guardInfo{guard: guard}
				}
			}
		}
		return true
	})
}

// findField resolves a field name inside a struct literal type.
func findField(info *types.Info, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				if v, ok := info.Defs[id].(*types.Var); ok {
					return v
				}
			}
		}
	}
	return nil
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isLockedMethod reports whether fd is a method following the
// *Locked caller-holds-the-lock convention on a receiver whose struct
// has annotated fields.
func (c *checker) isLockedMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || !strings.HasSuffix(fd.Name.Name, lockedSuffix) {
		return false
	}
	return c.recvIdent(fd) != nil
}

// funcObj returns the *types.Func of a declaration.
func (c *checker) funcObj(fd *ast.FuncDecl) *types.Func {
	fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return fn
}

// recvIdent returns the named receiver identifier, or nil.
func (c *checker) recvIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}

// fixpointRequires computes, for every *Locked method, the guard
// fields its body needs held on entry: direct annotated-field
// accesses through the receiver, plus (transitively) the requirements
// of *Locked methods it calls on the same receiver. Sets only grow
// and are bounded by the number of guards, so iteration terminates.
func (c *checker) fixpointRequires() {
	for changed := true; changed; {
		changed = false
		for _, fd := range c.methods {
			fn := c.funcObj(fd)
			if fn == nil {
				continue
			}
			g := c.cfgs.FuncDecl(fd)
			if g == nil {
				continue
			}
			needs := c.requires[fn]
			before := len(needs)
			c.analyze(g, fd.Body, heldSet{}, c.recvPath(fd), needs)
			if len(needs) != before {
				changed = true
			}
		}
	}
}

// recvPath returns the canonical path of fd's receiver variable.
func (c *checker) recvPath(fd *ast.FuncDecl) string {
	id := c.recvIdent(fd)
	if id == nil {
		return ""
	}
	p, _ := pathOf(c.pass.TypesInfo, id)
	return p
}

// checkFunc runs the reporting pass over one declared function.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	g := c.cfgs.FuncDecl(fd)
	if g == nil {
		return
	}
	entry := heldSet{}
	if c.isLockedMethod(fd) {
		// The caller holds what the body needs; the call sites carry
		// the obligation.
		recv := c.recvPath(fd)
		for guard := range c.requires[c.funcObj(fd)] {
			entry[recv+"."+pathKey(guard)] = true
		}
	}
	c.analyze(g, fd.Body, entry, "", nil)
}

// pathKey renders a guard field for path composition, matching
// pathOf's rendering of a selection of that field.
func pathKey(v *types.Var) string {
	return objKey(v)
}

// analyze runs the dataflow over one CFG. When collect is non-nil the
// pass runs in requirement-collection mode for a *Locked method:
// unheld receiver-relative guard needs are added to collect instead
// of reported (anything else still reports in the later checkFunc
// pass, which runs with the collected entry state). recvPath is only
// meaningful in collection mode.
func (c *checker) analyze(g *cfg.CFG, body ast.Node, entry heldSet, recvPath string, collect map[*types.Var]bool) {
	fresh := freshObjects(c.pass.TypesInfo, body)
	transfer := func(b *cfg.Block, in heldSet) heldSet {
		for _, n := range b.Nodes {
			c.walkNode(n, in, fresh, recvPath, collect, false)
		}
		return in
	}
	in := forward(g, entry, transfer)
	if collect != nil {
		return
	}
	for i, b := range g.Blocks {
		if in[i] == nil || !b.Live {
			continue
		}
		st := in[i].clone()
		for _, n := range b.Nodes {
			c.walkNode(n, st, fresh, recvPath, nil, true)
		}
	}
}

// walkNode applies one CFG node's lock effects to st in evaluation
// order and, when report is true, checks annotated accesses and
// *Locked call sites against the current state. Defer bodies apply no
// effects (a deferred unlock keeps the lock held to exit) and nested
// function literals are skipped outright — they are analyzed under
// their own CFG.
func (c *checker) walkNode(n ast.Node, st heldSet, fresh map[types.Object]bool, recvPath string, collect map[*types.Var]bool, report bool) {
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return
		case *ast.DeferStmt:
			walk(n.Call, true)
			return
		case *ast.CallExpr:
			for _, child := range append([]ast.Expr{n.Fun}, n.Args...) {
				walk(child, inDefer)
			}
			c.applyCall(n, st, fresh, recvPath, collect, report, inDefer)
			return
		case *ast.SelectorExpr:
			walk(n.X, inDefer)
			c.checkAccess(n, st, fresh, recvPath, collect, report)
			return
		}
		// Generic traversal for every other node shape: visit children
		// in syntactic (≈ evaluation) order.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			walk(child, inDefer)
			return false
		})
	}
	walk(n, false)
}

// applyCall handles one call expression: mutex Lock/Unlock effects and
// the call-site obligation of *Locked methods.
func (c *checker) applyCall(call *ast.CallExpr, st heldSet, fresh map[types.Object]bool, recvPath string, collect map[*types.Var]bool, report, inDefer bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Lock-state effects: only for methods of sync.Mutex/RWMutex.
	if recvType, ok := c.pass.TypesInfo.Types[sel.X]; ok && isMutex(recvType.Type) {
		path, ok := pathOf(c.pass.TypesInfo, sel.X)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if !inDefer {
				st[path] = true
			}
		case "Unlock", "RUnlock":
			if !inDefer {
				delete(st, path)
			}
		}
		return
	}
	// *Locked call sites: the callee's requirements are the caller's
	// obligation, receiver-relative.
	callee := typeutil.StaticCallee(c.pass.TypesInfo, call)
	if callee == nil || !strings.HasSuffix(callee.Name(), lockedSuffix) {
		return
	}
	needs, tracked := c.requires[callee]
	if !tracked || len(needs) == 0 {
		return
	}
	if freshBase(c.pass.TypesInfo, fresh, sel.X) {
		return
	}
	base, ok := pathOf(c.pass.TypesInfo, sel.X)
	if !ok {
		return
	}
	for guard := range needs {
		want := base + "." + pathKey(guard)
		if st[want] {
			continue
		}
		if collect != nil {
			if base == recvPath {
				collect[guard] = true
			}
			continue
		}
		if report && !c.dir.SuppressedAt(parbordir.Unsync, call.Pos()) {
			c.pass.Reportf(call.Pos(), "call to %s without %s held (callee assumes the caller holds it)", callee.Name(), guard.Name())
		}
	}
}

// checkAccess checks one field selection against the annotation set.
func (c *checker) checkAccess(sel *ast.SelectorExpr, st heldSet, fresh map[types.Object]bool, recvPath string, collect map[*types.Var]bool, report bool) {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	info, guarded := c.guards[field]
	if !guarded {
		return
	}
	if freshBase(c.pass.TypesInfo, fresh, sel.X) {
		return
	}
	base, ok := pathOf(c.pass.TypesInfo, sel.X)
	if !ok {
		return
	}
	want := base + "." + pathKey(info.guard)
	if st[want] {
		return
	}
	if collect != nil {
		if base == recvPath {
			collect[info.guard] = true
		}
		return
	}
	if report && !c.dir.SuppressedAt(parbordir.Unsync, sel.Pos()) {
		c.pass.Reportf(sel.Pos(), "field %s is //parbor:guardedby %s but accessed without holding it", field.Name(), info.guard.Name())
	}
}
