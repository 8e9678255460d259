// Package scope decides which packages and files each parborvet
// analyzer applies to, so the per-analyzer enforcement sets live in
// one place.
package scope

import (
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// InternalPkg returns the first path element after the last
// "internal/" segment of an import path ("parbor/internal/dram" ->
// "dram"), or "" when the path has no internal segment. Matching on
// the tail rather than the full path lets the analyzers apply
// identically to this module and to the self-test fixture modules.
func InternalPkg(path string) string {
	i := strings.LastIndex(path, "internal/")
	if i < 0 {
		return ""
	}
	tail := path[i+len("internal/"):]
	if j := strings.IndexByte(tail, '/'); j >= 0 {
		tail = tail[:j]
	}
	return strings.TrimSuffix(tail, "_test")
}

// Simulation is the set of packages whose results feed published
// figures: everything in them must be a pure function of the
// experiment seed. simdeterminism enforces over this set. To add a
// newly created simulation package to the enforced set, add its name
// here (see DESIGN.md section 10).
var Simulation = map[string]bool{
	"core": true, "coupling": true, "dram": true, "faults": true,
	"march": true, "memctl": true, "onlinetest": true, "patterns": true,
	"refresh": true, "repair": true, "retention": true, "rng": true,
	"scramble": true, "sim": true, "testtime": true,
}

// Storage is the set of packages that own durable on-disk state.
// Inside them the faultfs analyzer requires every file mutation to go
// through the parbor/internal/faultfs seam, so the crash sweep and
// disk-chaos soak exercise every write path the daemon has.
var Storage = map[string]bool{
	"checkpoint": true, "fleet": true, "fleetlog": true,
}

// cmdPkg returns the first path element after the last "cmd/" segment
// of an import path ("parbor/cmd/parbord" -> "parbord"), or "" when
// the path has no cmd segment. The tail match mirrors InternalPkg so
// the fixture modules scope identically to the real tree.
func cmdPkg(path string) string {
	i := strings.LastIndex(path, "cmd/")
	if i < 0 {
		return ""
	}
	tail := path[i+len("cmd/"):]
	if j := strings.IndexByte(tail, '/'); j >= 0 {
		tail = tail[:j]
	}
	return strings.TrimSuffix(tail, "_test")
}

// DurableCmd is the set of commands that operate on durable state
// (checkpoints, fleet state dirs, the event log). faultfs and
// syncdrop extend their enforcement from the storage packages to
// these binaries, so a dropped Sync error or seam bypass in a CLI
// entry point is caught the same as one in the library.
var DurableCmd = map[string]bool{
	"parbor": true, "parbord": true, "parborlog": true,
}

// Durable reports whether the package owns or operates on durable
// on-disk state: the storage packages plus the durable commands.
// syncdrop enforces error-flow discipline over this set.
func Durable(path string) bool {
	return Storage[InternalPkg(path)] || DurableCmd[cmdPkg(path)]
}

// CtxThreaded is the set of packages whose exported entry points
// drive row/chip loops, or the worker pool under them, and must
// thread context.Context (ctxthread).
var CtxThreaded = map[string]bool{
	"core": true, "exp": true, "march": true, "memctl": true,
	"onlinetest": true, "par": true, "retention": true,
}

// Obs is the observability package whose Recorder implementations
// must stay nil-safe (obsnilsafe).
func Obs(path string) bool { return InternalPkg(path) == "obs" }

// InTestFile reports whether pos lies in a _test.go file. The
// analyzers enforce library invariants; tests legitimately read the
// wall clock (deadlines) and build ad-hoc closures.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
