package fleetlog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parbor/internal/memctl"
)

// The differential oracle: the streaming, spill-and-merge classifier
// must be bit-identical to the obvious in-memory implementation, for
// every event-order permutation, every segment size, every memory
// budget, and under duplicated (crash-replayed) events. The oracle
// holds everything in nested maps — O(events) memory, which is exactly
// what the real classifier is not allowed to use.

// oracleRollup is the naive reference implementation.
func oracleRollup(events []Event) *Rollup {
	type modState struct {
		epochs map[int]struct{}
		obs    map[memctl.BitAddr]map[int]struct{}
	}
	mods := make(map[string]*modState)
	for _, ev := range events {
		ms := mods[ev.Module]
		if ms == nil {
			ms = &modState{
				epochs: make(map[int]struct{}),
				obs:    make(map[memctl.BitAddr]map[int]struct{}),
			}
			mods[ev.Module] = ms
		}
		ms.epochs[ev.Epoch] = struct{}{}
		for _, a := range ev.Fails {
			if ms.obs[a] == nil {
				ms.obs[a] = make(map[int]struct{})
			}
			ms.obs[a][ev.Epoch] = struct{}{}
		}
	}

	r := &Rollup{Schema: RollupSchema, Events: len(events), Modules: len(mods)}
	names := make([]string, 0, len(mods))
	for name := range mods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := mods[name]
		mr := ModuleRollup{Module: name, Epochs: len(ms.epochs)}
		type bankKey struct{ chip, bank int16 }
		groups := make(map[bankKey][]memctl.BitAddr)
		for a, epochs := range ms.obs {
			mr.Failures++
			mr.Observations += len(epochs)
			if len(epochs) >= 2 {
				mr.Permanent++
			} else {
				mr.Transient++
			}
			k := bankKey{a.Chip, a.Bank}
			groups[k] = append(groups[k], a)
		}
		for _, g := range groups {
			oneRow, oneCol := true, true
			for _, a := range g[1:] {
				if a.Row != g[0].Row {
					oneRow = false
				}
				if a.Col != g[0].Col {
					oneCol = false
				}
			}
			mode := ModeMultiCell
			switch {
			case len(g) == 1:
				mode = ModeSingleBit
			case oneRow:
				mode = ModeSingleRow
			case oneCol:
				mode = ModeSingleColumn
			}
			if mr.ByMode == nil {
				mr.ByMode = make(map[string]int)
			}
			mr.ByMode[mode]++
		}
		r.Epochs += mr.Epochs
		r.Failures += mr.Failures
		r.Observations += mr.Observations
		r.Transient += mr.Transient
		r.Permanent += mr.Permanent
		if mr.Failures > 0 {
			r.FailingModules++
		}
		for mode, n := range mr.ByMode {
			if r.ByMode == nil {
				r.ByMode = make(map[string]int)
			}
			r.ByMode[mode] += n
		}
		r.PerModule = append(r.PerModule, mr)
	}
	return r
}

// genEvents draws a random workload from a deliberately small
// coordinate space, so cells repeat across epochs (permanent faults),
// rows and columns collide (every fault mode appears), and events
// carry unsorted and duplicated failure lists (codec stress).
func genEvents(r *rand.Rand, nMods, nEvents int) []Event {
	evs := make([]Event, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		ev := Event{
			Module: fmt.Sprintf("mod-%02d", r.Intn(nMods)),
			Epoch:  1 + r.Intn(6),
		}
		for j, n := 0, r.Intn(6); j < n; j++ {
			ev.Fails = append(ev.Fails, memctl.BitAddr{
				Chip: int16(r.Intn(3)),
				Bank: int16(r.Intn(3)),
				Row:  int32(r.Intn(8)),
				Col:  int32(r.Intn(8)),
			})
		}
		evs = append(evs, ev)
	}
	return evs
}

// classifyEvents runs the streaming classifier over a slice.
func classifyEvents(t *testing.T, events []Event, cfg ClassifierConfig) *Rollup {
	t.Helper()
	c, err := newSerialClassifier(cfg)
	if err != nil {
		t.Fatalf("newSerialClassifier: %v", err)
	}
	defer c.close()
	for _, ev := range events {
		if err := c.observe(ev); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	r, err := c.finish(t.Context())
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return r
}

func diffRollups(t *testing.T, label string, got, want *Rollup) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	g, _ := json.MarshalIndent(got, "", "  ")
	w, _ := json.MarshalIndent(want, "", "  ")
	t.Fatalf("%s: classifier diverged from oracle:\ngot  %s\nwant %s", label, g, w)
}

func TestDifferentialOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			events := genEvents(r, 2+r.Intn(8), 50+r.Intn(200))
			want := oracleRollup(events)

			// Direct streaming, across memory budgets down to a budget
			// that spills on nearly every add.
			for _, maxKeys := range []int{0, 2, 7} {
				got := classifyEvents(t, events, ClassifierConfig{MaxKeys: maxKeys, SpillDir: t.TempDir()})
				diffRollups(t, fmt.Sprintf("maxKeys=%d", maxKeys), got, want)
			}

			// Order permutation: same multiset, shuffled.
			shuffled := append([]Event(nil), events...)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got := classifyEvents(t, shuffled, ClassifierConfig{MaxKeys: 3, SpillDir: t.TempDir()})
			diffRollups(t, "shuffled", got, want)

			// Duplication: every event replayed, as a crashed daemon
			// would. Only the raw Events count may change.
			doubled := append(append([]Event(nil), events...), events...)
			r.Shuffle(len(doubled), func(i, j int) { doubled[i], doubled[j] = doubled[j], doubled[i] })
			got = classifyEvents(t, doubled, ClassifierConfig{MaxKeys: 5, SpillDir: t.TempDir()})
			diffRollups(t, "doubled vs oracle", got, oracleRollup(doubled))
			got.Events = want.Events
			diffRollups(t, "doubled vs original set", got, want)

			// Through the log: write, read back, classify — across
			// segment sizes, so record/segment splits move everywhere,
			// and summary states.
			for _, segBytes := range []int64{0, 32, 512} {
				dir := t.TempDir()
				w, err := OpenWriter(dir, WriterOptions{SegmentBytes: segBytes})
				if err != nil {
					t.Fatalf("OpenWriter: %v", err)
				}
				for _, ev := range events {
					if err := w.Append(ev); err != nil {
						t.Fatalf("Append: %v", err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				got, err := Analyze(t.Context(), dir, ClassifierConfig{MaxKeys: 4, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("Analyze: %v", err)
				}
				diffRollups(t, fmt.Sprintf("segBytes=%d", segBytes), got, want)

				// Every summary state gives the rollup of the records
				// the log then holds.
				for _, state := range summaryStates {
					sdir := withSummaryState(t, dir, state)
					got, err := Analyze(t.Context(), sdir, ClassifierConfig{MaxKeys: 4, SpillDir: t.TempDir()})
					if err != nil {
						t.Fatalf("summaries %s: Analyze: %v", state, err)
					}
					diffRollups(t, fmt.Sprintf("segBytes=%d, summaries %s", segBytes, state), got, logOracle(t, sdir))
				}
			}
		})
	}
}

// TestDifferentialMillionEventsSpill is the acceptance-scale run: a
// million-event log classified under a memory budget (1<<16 keys) far
// smaller than the distinct-key population, forcing the full
// spill-and-merge path, and still bit-identical to the in-memory
// oracle. The oracle itself stays cheap because the *distinct* cell
// population is bounded even though the event stream is not — which is
// the whole point of the design.
func TestDifferentialMillionEventsSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("million-event differential run")
	}
	const nEvents = 1_000_000
	r := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	type modState struct {
		epochs map[int]struct{}
		obs    map[memctl.BitAddr]map[int]struct{}
	}
	oracle := make(map[string]*modState)

	// Stream generation: each event goes to the log and the oracle;
	// the full slice never exists.
	for i := 0; i < nEvents; i++ {
		ev := Event{
			Module: fmt.Sprintf("mod-%03d", r.Intn(64)),
			Epoch:  1 + r.Intn(32),
		}
		for j, n := 0, r.Intn(8); j < n; j++ {
			ev.Fails = append(ev.Fails, memctl.BitAddr{
				Chip: int16(r.Intn(4)),
				Bank: int16(r.Intn(4)),
				Row:  int32(r.Intn(64)),
				Col:  int32(r.Intn(64)),
			})
		}
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
		ms := oracle[ev.Module]
		if ms == nil {
			ms = &modState{epochs: make(map[int]struct{}), obs: make(map[memctl.BitAddr]map[int]struct{})}
			oracle[ev.Module] = ms
		}
		ms.epochs[ev.Epoch] = struct{}{}
		for _, a := range ev.Fails {
			if ms.obs[a] == nil {
				ms.obs[a] = make(map[int]struct{})
			}
			ms.obs[a][ev.Epoch] = struct{}{}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, err := Analyze(t.Context(), dir, ClassifierConfig{MaxKeys: 1 << 16, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got.Events != nEvents {
		t.Fatalf("folded %d events, want %d", got.Events, nEvents)
	}
	// Rollup.Observations counts distinct (module, cell, epoch) keys —
	// exactly the observation spill set's population — so it proves the
	// in-memory budget was truly exceeded and spill-and-merge ran.
	if got.Observations <= 1<<16 {
		t.Fatalf("workload has only %d distinct observations; spill not forced", got.Observations)
	}

	// Check the oracle's totals against the streamed result without
	// rebuilding the full Rollup struct: totals plus every per-module
	// record.
	byName := make(map[string]ModuleRollup, len(got.PerModule))
	for _, mr := range got.PerModule {
		byName[mr.Module] = mr
	}
	if len(byName) != len(oracle) {
		t.Fatalf("classified %d modules, oracle saw %d", len(byName), len(oracle))
	}
	for name, ms := range oracle {
		mr, ok := byName[name]
		if !ok {
			t.Fatalf("module %s missing from rollup", name)
		}
		if mr.Epochs != len(ms.epochs) {
			t.Errorf("%s: epochs %d, want %d", name, mr.Epochs, len(ms.epochs))
		}
		if mr.Failures != len(ms.obs) {
			t.Errorf("%s: failures %d, want %d", name, mr.Failures, len(ms.obs))
		}
		obsTotal, perm := 0, 0
		for _, epochs := range ms.obs {
			obsTotal += len(epochs)
			if len(epochs) >= 2 {
				perm++
			}
		}
		if mr.Observations != obsTotal || mr.Permanent != perm || mr.Transient != len(ms.obs)-perm {
			t.Errorf("%s: obs/perm/trans %d/%d/%d, want %d/%d/%d", name,
				mr.Observations, mr.Permanent, mr.Transient, obsTotal, perm, len(ms.obs)-perm)
		}
	}
}
