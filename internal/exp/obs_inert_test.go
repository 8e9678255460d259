package exp

import (
	"context"
	"reflect"
	"testing"

	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// TestObsInstrumentationInert is the inertness property of the
// observability layer: attaching a Recorder must not change a single
// detection outcome. For every vendor and several seeds, the full
// pipeline runs twice — once with a nil Recorder, once with a live
// Collector — and every part of the result, including the exact
// failure populations, must be identical.
func TestObsInstrumentationInert(t *testing.T) {
	o := Options{RowsPerChip: 192, Chips: 2, Seed: 0}
	for _, v := range scramble.Vendors() {
		for _, seed := range []uint64{1, 42} {
			o.Seed = seed

			plain := o
			plain.Recorder = nil
			instrumented := o
			col := obs.NewCollector()
			instrumented.Recorder = col

			runOnce := func(opt Options) interface{} {
				tester, _, err := newTester(moduleName(v, 0), v, opt, moduleSeed(opt.Seed, v, 0))
				if err != nil {
					t.Fatalf("vendor %v seed %d: newTester: %v", v, seed, err)
				}
				rep, err := tester.Run(context.Background())
				if err != nil {
					t.Fatalf("vendor %v seed %d: Run: %v", v, seed, err)
				}
				return rep
			}
			a := runOnce(plain)
			b := runOnce(instrumented)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("vendor %v seed %d: instrumented run diverges from plain run", v, seed)
			}
			if col.CommandCount(obs.CmdActivate) == 0 {
				t.Errorf("vendor %v seed %d: collector attached but recorded nothing", v, seed)
			}
		}
	}
}

// TestObsInertUnderParallelism drives the concurrent path: Fig12
// measures modules in parallel, all feeding one shared Collector.
// Results must match the uninstrumented run, and under -race this
// doubles as the data-race check for the atomic counter paths.
func TestObsInertUnderParallelism(t *testing.T) {
	o := Options{RowsPerChip: 128, Chips: 2, ModulesPerVendor: 2, Seed: 42}

	plain, err := Fig12(context.Background(), o)
	if err != nil {
		t.Fatalf("Fig12 (plain): %v", err)
	}
	col := obs.NewCollector()
	o.Recorder = col
	instrumented, err := Fig12(context.Background(), o)
	if err != nil {
		t.Fatalf("Fig12 (instrumented): %v", err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Errorf("instrumented Fig12 diverges:\n  plain:        %+v\n  instrumented: %+v", plain, instrumented)
	}
	if err := col.Snapshot("inert-test").Reconcile(); err != nil {
		t.Errorf("parallel instrumented run does not reconcile: %v", err)
	}
}
