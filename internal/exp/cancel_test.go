package exp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"parbor/internal/chaos"
	"parbor/internal/core"
	"parbor/internal/dram"
	"parbor/internal/march"
	"parbor/internal/memctl"
	"parbor/internal/patterns"
	"parbor/internal/retention"
	"parbor/internal/scramble"
	"parbor/internal/sim"
)

// cancelHost builds a small host (rows short enough for the pair
// search) with an optional fault plane.
func cancelHost(t *testing.T, plane memctl.FaultPlane) *memctl.Host {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Name:     "A1",
		Vendor:   scramble.VendorA,
		Chips:    2,
		Geometry: dram.Geometry{Banks: 1, Rows: 32, Cols: 1024},
		Coupling: experimentCoupling(),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Faults: plane})
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// entryPoint is one ctx-first test operation above the host. call
// returns the operation's results (everything but the error) and its
// error.
type entryPoint struct {
	name string
	call func(ctx context.Context, h *memctl.Host) ([]any, error)
}

func testerOn(h *memctl.Host) *core.Tester {
	t, err := core.New(h, core.Config{Seed: 5})
	if err != nil {
		panic(err)
	}
	return t
}

var (
	cancelDistances = []int{-8, 8}
	cancelVictims   = []core.Victim{{Row: memctl.Row{Chip: 0, Bank: 0, Row: 3}, Col: 100, FailData: 1}}
)

// hostEntryPoints lists every entry point that drives a host it is
// given: the ten core.Tester operations, the March engine and the
// retention profiler.
var hostEntryPoints = []entryPoint{
	{"core.Run", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		r, err := testerOn(h).Run(ctx)
		return []any{r}, err
	}},
	{"core.DetectNeighborsCtx", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		r, err := testerOn(h).DetectNeighborsCtx(ctx)
		return []any{r}, err
	}},
	{"core.FullChipTestCtx", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		fs, n, err := testerOn(h).FullChipTestCtx(ctx, cancelDistances)
		return []any{fs, n}, err
	}},
	{"core.RandomPatternTest", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		fs, err := testerOn(h).RandomPatternTest(ctx, 3)
		return []any{fs}, err
	}},
	{"core.SimplePatternTest", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		fs, err := testerOn(h).SimplePatternTest(ctx)
		return []any{fs}, err
	}},
	{"core.DiscoverVictims", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		vs, n, fs, err := testerOn(h).DiscoverVictims(ctx)
		return []any{vs, n, fs}, err
	}},
	{"core.ClassifyVictims", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		cs, n, err := testerOn(h).ClassifyVictims(ctx, cancelVictims, cancelDistances)
		return []any{cs, n}, err
	}},
	{"core.DetectExtendedNeighbors", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		r, err := testerOn(h).DetectExtendedNeighbors(ctx, cancelVictims, cancelDistances)
		return []any{r}, err
	}},
	{"core.LinearNeighborSearch", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		ds, n, err := testerOn(h).LinearNeighborSearch(ctx, cancelVictims[0])
		return []any{ds, n}, err
	}},
	{"core.ExhaustivePairSearch", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		ps, n, err := testerOn(h).ExhaustivePairSearch(ctx, cancelVictims[0])
		return []any{ps, n}, err
	}},
	{"march.Engine.Run", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		e, err := march.NewEngine(h)
		if err != nil {
			panic(err)
		}
		r, err := e.Run(ctx, march.MarchCMinus())
		return []any{r}, err
	}},
	{"march.Engine.NPSF", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		e, err := march.NewEngine(h)
		if err != nil {
			panic(err)
		}
		r, err := e.NPSF(ctx, cancelDistances, 100)
		return []any{r}, err
	}},
	{"retention.Profiler.ProfileModule", func(ctx context.Context, h *memctl.Host) ([]any, error) {
		p, err := retention.New(h, retention.Config{MinMs: 64, MaxMs: 256})
		if err != nil {
			panic(err)
		}
		r, err := p.ProfileModule(ctx, []patterns.Pattern{patterns.Solid()})
		return []any{r}, err
	}},
}

// runners lists every experiment runner, each at a small scale.
var runners = []struct {
	name string
	call func(ctx context.Context) ([]any, error)
}{
	{"Table1", func(ctx context.Context) ([]any, error) { return one(Table1(ctx, fastOpts())) }},
	{"Fig11", func(ctx context.Context) ([]any, error) { return one(Fig11(ctx, fastOpts())) }},
	{"Fig12", func(ctx context.Context) ([]any, error) { return one(Fig12(ctx, fastOpts())) }},
	{"Fig13", func(ctx context.Context) ([]any, error) { return one(Fig13(ctx, fastOpts())) }},
	{"Fig14", func(ctx context.Context) ([]any, error) { return one(Fig14(ctx, fastOpts())) }},
	{"Fig15", func(ctx context.Context) ([]any, error) { return one(Fig15(ctx, fastOpts(), []int{50})) }},
	{"Fig16", func(ctx context.Context) ([]any, error) {
		rows, sums, err := Fig16(ctx, Fig16Options{Workloads: 2, Cores: 4, SimNs: 1e6, Densities: []sim.Density{sim.Density32Gbit}, Seed: 3})
		return []any{rows, sums}, err
	}},
	{"Retention", func(ctx context.Context) ([]any, error) { return one(Retention(ctx, fastOpts())) }},
}

func one[T any](v T, err error) ([]any, error) { return []any{v}, err }

// isZero reports whether every result is its type's zero value: a nil
// pointer, slice or map, or a zero count.
func isZero(results []any) bool {
	for _, r := range results {
		if r != nil && !reflect.ValueOf(r).IsZero() {
			return false
		}
	}
	return true
}

// TestEntryPointCancellation calls every ctx-first test operation
// above the host with an already-cancelled ctx. Each must report
// context.Canceled, return no partial result, and leave the host's
// pass count where it was.
func TestEntryPointCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ep := range hostEntryPoints {
		h := cancelHost(t, nil)
		before := h.Passes()
		results, err := ep.call(ctx, h)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", ep.name, err)
		}
		if !isZero(results) {
			t.Errorf("%s: partial result %v under a cancelled ctx", ep.name, results)
		}
		if got := h.Passes(); got != before {
			t.Errorf("%s: host ran %d passes under a cancelled ctx", ep.name, got-before)
		}
	}
	for _, r := range runners {
		results, err := r.call(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.name, err)
		}
		if !isZero(results) {
			t.Errorf("%s: partial result %v under a cancelled ctx", r.name, results)
		}
	}
}

// TestEntryPointWriteFaults runs the full-module baselines and the
// probe-pass callers (victim classification, extended detection and
// the naive searches) on a host whose fault plane rejects every write:
// each must return the *memctl.PassError, not panic.
func TestEntryPointWriteFaults(t *testing.T) {
	for _, ep := range hostEntryPoints {
		switch ep.name {
		case "core.SimplePatternTest", "core.RandomPatternTest", "core.DiscoverVictims",
			"core.ClassifyVictims", "core.DetectExtendedNeighbors", "core.LinearNeighborSearch", "core.ExhaustivePairSearch":
		default:
			continue
		}
		plane, err := chaos.New(chaos.Config{Seed: 1, WriteFaultProb: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		results, err := ep.call(context.Background(), cancelHost(t, plane))
		var pe *memctl.PassError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *memctl.PassError", ep.name, err)
		}
		if !isZero(results) {
			t.Errorf("%s: partial result %v after a rejected write", ep.name, results)
		}
	}
}
