// Package faultfs defines an analyzer enforcing that storage packages
// route durable file mutations through the parbor/internal/faultfs
// seam.
//
// The crash sweep and disk-chaos soak in internal/fleet prove the
// daemon survives every fault point — but only for I/O that flows
// through the seam. A direct os.OpenFile, os.WriteFile, or os.Create
// in a storage package (scope.Storage) — or in one of the durable
// command binaries (scope.DurableCmd), whose entry points create the
// same state dirs and log dirs — is a write the injector never sees:
// it cannot be torn, crashed, or broken by a test, so its failure
// handling is unproven. The analyzer flags those calls in non-test
// files; there is no opt-out.
package faultfs

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"parbor/internal/analyzers/scope"
)

// Analyzer is the faultfs pass.
var Analyzer = &analysis.Analyzer{
	Name:     "faultfs",
	Doc:      "require storage packages to open and write files through the parbor/internal/faultfs seam",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// bannedCalls are the direct os file mutations that bypass the fault
// plane. Reads are deliberately absent: the seam matters where state
// is created, and read paths are covered once the writes that feed
// them are.
var bannedCalls = map[string]bool{
	"OpenFile": true, "WriteFile": true, "Create": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Durable(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		if scope.InTestFile(pass, n.Pos()) {
			return
		}
		call := n.(*ast.CallExpr)
		fn := typeutil.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !bannedCalls[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(), "os.%s on a durable path bypasses the fault plane; route through parbor/internal/faultfs", fn.Name())
	})
	return nil, nil
}
