package main_test

import (
	"strings"
	"testing"

	"parbor/internal/analyzers/atest"
)

// analyzers maps every analyzer the multichecker registers to the
// number of diagnostics the knownbad fixture provokes from it. Each
// distinct diagnostic fires exactly once; hotalloc carries three
// (hot-path allocation, hot-path plane rebuild, and the contradictory
// hotpath+planebuild annotation), asserted individually by fragment
// in TestKnownBadFailsPlainVet.
var analyzers = map[string]int{
	"simdeterminism": 1,
	"rngstream":      1,
	"ctxthread":      1,
	"obsnilsafe":     1,
	"hotalloc":       3,
	"faultfs":        1,
	"lockguard":      1,
	"atomicmix":      1,
	"syncdrop":       1,
}

// TestKnownBadFiresEachAnalyzerOnce runs the full vet pipeline over
// the knownbad fixture module and asserts each registered analyzer
// produces exactly its expected diagnostics — proving every analyzer
// is wired into the binary and scoped onto the fixture's packages.
func TestKnownBadFiresEachAnalyzerOnce(t *testing.T) {
	diags := atest.Vet(t, "testdata/knownbad")
	counts := make(map[string]int)
	want := 0
	for _, n := range analyzers {
		want += n
	}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	for name, n := range analyzers {
		if counts[name] != n {
			t.Errorf("analyzer %s fired %d times, want exactly %d", name, counts[name], n)
		}
	}
	for name, n := range counts {
		if _, known := analyzers[name]; !known {
			t.Errorf("unregistered analyzer %s fired %d times", name, n)
		}
	}
	if len(diags) != want {
		for _, d := range diags {
			t.Logf("diagnostic: %s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
		}
	}
}

// TestKnownBadFailsPlainVet asserts the exact invocation CI and
// `make vet` use exits nonzero on the fixture, so a diagnostic
// anywhere actually gates the build. Plain vet output carries the
// message but not the analyzer name, so each analyzer is recognized
// by a distinctive fragment of its diagnostic.
func TestKnownBadFailsPlainVet(t *testing.T) {
	failed, out := atest.VetFails(t, "testdata/knownbad")
	if !failed {
		t.Fatalf("go vet -vettool=parborvet exited zero on the knownbad fixture\noutput:\n%s", out)
	}
	fragments := map[string]string{
		"simdeterminism":     "breaks seed-determinism",
		"rngstream":          "rng.Split allocates its child stream",
		"ctxthread":          "without accepting a context.Context",
		"obsnilsafe":         "nil-receiver guard",
		"hotalloc":           "fmt.Sprintf in //parbor:hotpath",
		"hotalloc/planecall": "calls //parbor:planebuild function",
		"hotalloc/conflict":  "conflicting //parbor:hotpath and //parbor:planebuild",
		"faultfs":            "bypasses the fault plane",
		"lockguard":          "accessed without holding",
		"atomicmix":          "plain access races",
		"syncdrop":           "discarded on a durable path",
	}
	for name, fragment := range fragments {
		if n := strings.Count(out, fragment); n != 1 {
			t.Errorf("plain vet output carries %d %s diagnostics (looked for %q, want exactly 1)\noutput:\n%s", n, name, fragment, out)
		}
	}
}
