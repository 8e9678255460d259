// Command parborvet is the repository's analysis suite: eight
// golang.org/x/tools/go/analysis passes that mechanically enforce the
// invariants every published figure rests on. Each pass fires on its
// knownbad fixture (testdata/knownbad) and guards live sites in the
// tree, counted here as places where its rule applies and holds:
//
//   - simdeterminism: seed-determinism of the simulation packages
//     (9 sites: 7 map-range appends sorted afterwards, 2 annotated
//     wall-clock reads);
//   - rngstream: no allocating rng derivation in a //parbor:hotpath
//     function, and no draw from a captured rng stream in a shard
//     body (7 value derivations, 4 shard bodies);
//   - ctxthread: context threading through row/chip loops (28
//     ctx-first exported entry points);
//   - obsnilsafe: nil-safe observability (7 guarded Collector
//     methods);
//   - hotalloc: the zero-allocation pass hot loop (34 hot-path
//     functions);
//   - faultfs: durable I/O through the parbor/internal/faultfs seam
//     (12 file mutations);
//   - lockguard: //parbor:guardedby mutex discipline, flow-sensitive
//     (179 guarded accesses to 36 annotated fields);
//   - syncdrop: durable error flow, flow-sensitive (25 checked
//     Sync/Close/Flush/WriteFileAtomic calls, 7 justified opt-outs).
//
// It speaks the go vet unitchecker protocol, so it is run through the
// build system rather than standalone:
//
//	go build -o parborvet ./cmd/parborvet
//	go vet -vettool=$PWD/parborvet ./...
//
// or simply `make vet`. Individual analyzers can be selected the
// usual way: `go vet -vettool=$PWD/parborvet -simdeterminism ./...`.
// DESIGN.md sections 10 and 15 document each analyzer and the
// //parbor:* annotation contract.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"parbor/internal/analyzers/ctxthread"
	"parbor/internal/analyzers/faultfs"
	"parbor/internal/analyzers/hotalloc"
	"parbor/internal/analyzers/lockguard"
	"parbor/internal/analyzers/obsnilsafe"
	"parbor/internal/analyzers/rngstream"
	"parbor/internal/analyzers/simdeterminism"
	"parbor/internal/analyzers/syncdrop"
)

func main() {
	unitchecker.Main(
		simdeterminism.Analyzer,
		rngstream.Analyzer,
		ctxthread.Analyzer,
		obsnilsafe.Analyzer,
		hotalloc.Analyzer,
		faultfs.Analyzer,
		lockguard.Analyzer,
		syncdrop.Analyzer,
	)
}
