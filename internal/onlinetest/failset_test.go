package onlinetest_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"parbor/internal/chaos"
	"parbor/internal/checkpoint"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/onlinetest"
	"parbor/internal/rng"
	"parbor/internal/scramble"
)

// refSets is the reference model of the scheduler's failure sets: the
// map-plus-sort bookkeeping the scheduler used before its sets became
// incremental canonical slices. Driven by every successful pass's raw
// failures, it folds them exactly as that code did — into the epoch's
// dedupe set, the sweep set and the ever set, collecting first
// sightings as new failures — so it also covers passes of epochs that
// later abort.
type refSets struct {
	ever, sweep, epoch map[memctl.BitAddr]struct{}
	fresh              []memctl.BitAddr
}

func newRefSets() *refSets {
	return &refSets{
		ever:  map[memctl.BitAddr]struct{}{},
		sweep: map[memctl.BitAddr]struct{}{},
		epoch: map[memctl.BitAddr]struct{}{},
	}
}

func (r *refSets) observe(fails []memctl.BitAddr) {
	for _, a := range fails {
		r.epoch[a] = struct{}{}
		r.sweep[a] = struct{}{}
		if _, ok := r.ever[a]; !ok {
			r.ever[a] = struct{}{}
			r.fresh = append(r.fresh, a)
		}
	}
}

// startEpoch forgets the previous epoch's per-epoch sets.
func (r *refSets) startEpoch() {
	r.epoch = map[memctl.BitAddr]struct{}{}
	r.fresh = nil
}

func sortedRef(set map[memctl.BitAddr]struct{}) []memctl.BitAddr {
	out := make([]memctl.BitAddr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return lessAddr(out[i], out[j]) })
	return out
}

func lessAddr(a, b memctl.BitAddr) bool {
	if a.Chip != b.Chip {
		return a.Chip < b.Chip
	}
	if a.Bank != b.Bank {
		return a.Bank < b.Bank
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// cancelAtPlane cancels a context when a chosen host attempt begins
// its write, then defers to an optional inner fault plane.
type cancelAtPlane struct {
	inner    memctl.FaultPlane
	cancelAt int
	cancel   context.CancelFunc
}

func (p *cancelAtPlane) BeforeWrite(attempt int, r memctl.Row) error {
	if attempt == p.cancelAt && p.cancel != nil {
		p.cancel()
	}
	if p.inner != nil {
		return p.inner.BeforeWrite(attempt, r)
	}
	return nil
}

func (p *cancelAtPlane) BeforeRead(attempt int, r memctl.Row) error {
	if p.inner != nil {
		return p.inner.BeforeRead(attempt, r)
	}
	return nil
}

// diffScenario is one seeded run of the differential suite.
type diffScenario struct {
	name   string
	chips  int
	rows   int
	perEp  int
	faults faults.Config
	chaos  *chaos.Config
}

func buildModule(t *testing.T, sc diffScenario, seed uint64, plane memctl.FaultPlane) (*dram.Module, *memctl.Host) {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    sc.chips,
		Geometry: dram.Geometry{Banks: 1, Rows: sc.rows, Cols: 2048},
		Coupling: coupling.Config{
			VulnerableRate:  4e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  300,
		},
		Faults: sc.faults,
		Seed:   seed,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{WaitMs: 400, Parallelism: 1, Faults: plane})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return mod, host
}

// TestFailureSetsMatchReference runs seeded random schedules — several
// sweeps, VRT-hot modules whose new failures land in the middle of the
// known set, chaos quarantine, mid-epoch cancellation, and resumes —
// and checks after every epoch that the scheduler's incremental sets
// equal the reference model's: State's sets, NewFailures as a set,
// Observed, and the Snapshot.Marshal bytes. Every State exported along
// the way must still hold, at the end, exactly what it held when it
// was taken.
func TestFailureSetsMatchReference(t *testing.T) {
	scenarios := []diffScenario{
		{name: "clean", chips: 2, rows: 24, perEp: 8},
		{name: "vrt-hot", chips: 2, rows: 16, perEp: 8,
			faults: faults.Config{VRTRate: 2e-3, VRTToggleProb: 0.5, SoftErrorPerRowRead: 0.01}},
		{name: "uneven-epochs", chips: 3, rows: 10, perEp: 7,
			faults: faults.Config{VRTRate: 1e-3, VRTToggleProb: 0.3}},
		{name: "chaos", chips: 3, rows: 16, perEp: 8,
			faults: faults.Config{VRTRate: 1e-3, VRTToggleProb: 0.4},
			chaos: &chaos.Config{
				WriteFaultProb: 0.004,
				ReadFaultProb:  0.004,
				DeadChips:      []chaos.Window{{Chip: 2, From: 150, To: 900}},
			}},
	}
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				runDifferential(t, sc, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, sc diffScenario, seed uint64) {
	src := rng.New(seed).Split("schedule")
	plane := &cancelAtPlane{cancelAt: -1}
	if sc.chaos != nil {
		cfg := *sc.chaos
		cfg.Seed = seed
		p, err := chaos.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		plane.inner = p
	}
	mod, host := buildModule(t, sc, 500+seed, plane)
	cfg := onlinetest.Config{Distances: []int{-48, -16, -8, 8, 16, 48}, RowsPerEpoch: sc.perEp, MaxRetries: 4}
	s, err := onlinetest.New(host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSets()
	onlinetest.SetPassObserver(s, ref.observe)

	type exported struct {
		view onlinetest.State
		ever []memctl.BitAddr
		swp  []memctl.BitAddr
	}
	var published []exported
	// checkState compares State, and its Snapshot.Marshal bytes, with
	// the reference, and records the export for the final check.
	checkState := func(step int) onlinetest.State {
		st := s.State()
		if st.EverSeen == nil || st.SweepSeen == nil {
			t.Fatalf("step %d: State exported a nil failure set", step)
		}
		wantEver, wantSweep := sortedRef(ref.ever), sortedRef(ref.sweep)
		if !equalAddrs(st.EverSeen, wantEver) || !equalAddrs(st.SweepSeen, wantSweep) {
			t.Fatalf("step %d: State sets %d/%d, reference %d/%d",
				step, len(st.EverSeen), len(st.SweepSeen), len(wantEver), len(wantSweep))
		}
		refSt := st
		refSt.EverSeen, refSt.SweepSeen = wantEver, wantSweep
		a, err := checkpoint.Capture(mod, seed, st).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := checkpoint.Capture(mod, seed, refSt).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("step %d: Snapshot.Marshal differs from the reference's", step)
		}
		published = append(published, exported{view: st, ever: slices.Clone(st.EverSeen), swp: slices.Clone(st.SweepSeen)})
		return st
	}
	checkState(-1) // empty sets must encode as [], not null
	epochsPerSweep := (sc.chips*sc.rows + sc.perEp - 1) / sc.perEp
	completed, cancels, resumes, midInserts := 0, 0, 0, 0
	for step := 0; completed < 4*epochsPerSweep; step++ {
		if step > 20*epochsPerSweep {
			t.Fatalf("schedule stalled after %d steps", step)
		}
		ctx, cancel := context.WithCancel(context.Background())
		plane.cancel, plane.cancelAt = cancel, -1
		if src.Uint64()%6 == 0 {
			// Cancel somewhere inside the epoch: after the saves and
			// possibly after some of its passes.
			plane.cancelAt = host.Attempts() + sc.perEp + int(src.Uint64()%24)
		}
		ref.startEpoch()
		known := sortedRef(ref.ever)
		res, epochErr := s.RunEpoch(ctx)
		cancel()
		if epochErr != nil {
			if ctx.Err() == nil {
				t.Fatalf("step %d: %v", step, epochErr)
			}
			cancels++
		} else {
			completed++
			if want := sortedRef(ref.epoch); !equalAddrs(res.Observed, want) {
				t.Fatalf("step %d: Observed has %d cells, reference %d", step, len(res.Observed), len(want))
			}
			if !slices.IsSortedFunc(res.NewFailures, cmpAddr) {
				t.Fatalf("step %d: NewFailures not in canonical order", step)
			}
			got := append([]memctl.BitAddr(nil), res.NewFailures...)
			want := append([]memctl.BitAddr(nil), ref.fresh...)
			sort.Slice(want, func(i, j int) bool { return lessAddr(want[i], want[j]) })
			if !equalAddrs(got, want) {
				t.Fatalf("step %d: NewFailures %v, reference %v", step, got, want)
			}
			if res.SweepCompleted {
				ref.sweep = map[memctl.BitAddr]struct{}{}
			}
			if len(res.NewFailures) > 0 && len(known) > 0 && lessAddr(res.NewFailures[0], known[len(known)-1]) {
				midInserts++
			}
		}

		st := checkState(step)
		if src.Uint64()%9 == 0 {
			// Resume on the same host: the sets must carry over intact.
			s, err = onlinetest.Resume(host, st)
			if err != nil {
				t.Fatalf("step %d: Resume: %v", step, err)
			}
			onlinetest.SetPassObserver(s, ref.observe)
			resumes++
		}
	}
	for i, p := range published {
		if !equalAddrs(p.view.EverSeen, p.ever) || !equalAddrs(p.view.SweepSeen, p.swp) {
			t.Fatalf("State exported at step %d changed after the scheduler ran on", i)
		}
	}
	if len(s.Failures()) != len(ref.ever) {
		t.Fatalf("Failures() has %d cells, reference %d", len(s.Failures()), len(ref.ever))
	}
	t.Logf("%d epochs, %d cancelled, %d resumes, %d mid-set inserts, %d failures, quarantined %v",
		completed, cancels, resumes, midInserts, len(ref.ever), s.Quarantined())
	if sc.name == "vrt-hot" && midInserts == 0 {
		t.Errorf("VRT-hot run never inserted a failure below the known set's end; the merge path went untested")
	}
}

func cmpAddr(a, b memctl.BitAddr) int {
	switch {
	case lessAddr(a, b):
		return -1
	case lessAddr(b, a):
		return 1
	}
	return 0
}

// equalAddrs compares two sets, treating nil and empty alike.
func equalAddrs(a, b []memctl.BitAddr) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestStateSharingContract: appending to an exported State's sets must
// not reach the scheduler, and schedulers resumed from one State must
// run independently of it and of each other.
func TestStateSharingContract(t *testing.T) {
	sc := diffScenario{chips: 2, rows: 16, perEp: 8, faults: faults.Config{VRTRate: 2e-3, VRTToggleProb: 0.5}}
	_, host := buildModule(t, sc, 77, nil)
	cfg := onlinetest.Config{Distances: []int{-48, -16, -8, 8, 16, 48}, RowsPerEpoch: 8}
	s, err := onlinetest.New(host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.State()
	if len(st.EverSeen) == 0 || len(st.SweepSeen) == 0 {
		t.Fatal("no failures to share; the test is vacuous")
	}
	keepEver, keepSweep := slices.Clone(st.EverSeen), slices.Clone(st.SweepSeen)

	bogus := memctl.BitAddr{Chip: 99, Bank: 99, Row: 99, Col: 99}
	grown := st
	grown.EverSeen = append(grown.EverSeen, bogus)
	grown.SweepSeen = append(grown.SweepSeen, bogus)
	if again := s.State(); !equalAddrs(again.EverSeen, keepEver) || !equalAddrs(again.SweepSeen, keepSweep) {
		t.Fatal("appending to an exported State changed the scheduler's sets")
	}
	// Resume copies: writing a (private) copy's elements after Resume
	// must not reach the resumed scheduler.
	private := st
	private.EverSeen, private.SweepSeen = slices.Clone(st.EverSeen), slices.Clone(st.SweepSeen)
	_, h0 := buildModule(t, sc, 77, nil)
	r0, err := onlinetest.Resume(h0, private)
	if err != nil {
		t.Fatal(err)
	}
	private.EverSeen[0], private.SweepSeen[0] = bogus, bogus
	if got := r0.State(); !equalAddrs(got.EverSeen, keepEver) || !equalAddrs(got.SweepSeen, keepSweep) {
		t.Fatal("Resume kept a reference to its input's sets")
	}

	// Two resumes from the one State, on twin hosts, step for step.
	_, h1 := buildModule(t, sc, 78, nil)
	_, h2 := buildModule(t, sc, 78, nil)
	r1, err := onlinetest.Resume(h1, st)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := onlinetest.Resume(h2, st)
	if err != nil {
		t.Fatal(err)
	}
	grewMid := false
	for i := 0; i < 12; i++ {
		a, err := r1.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// r1 runs an extra State export each epoch; r2 does not. The
		// exports must not perturb anything.
		_ = r1.State()
		b, err := r2.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !equalAddrs(a.NewFailures, b.NewFailures) || !equalAddrs(a.Observed, b.Observed) {
			t.Fatalf("epoch %d: twin resumes diverged", i)
		}
		if len(a.NewFailures) > 0 {
			grewMid = true
		}
		s1, s2 := r1.State(), r2.State()
		if !equalAddrs(s1.EverSeen, s2.EverSeen) || !equalAddrs(s1.SweepSeen, s2.SweepSeen) {
			t.Fatalf("epoch %d: twin resumes' sets diverged", i)
		}
	}
	if !grewMid {
		t.Fatal("resumed schedulers found no new failures; the independence check is vacuous")
	}
	if !equalAddrs(st.EverSeen, keepEver) || !equalAddrs(st.SweepSeen, keepSweep) {
		t.Fatal("running resumed schedulers changed the State they were resumed from")
	}
	if again := s.State(); !equalAddrs(again.EverSeen, keepEver) {
		t.Fatal("running resumed schedulers changed the original scheduler")
	}
}

// TestStateAppendIsolated: a caller appending to an exported State's
// sets must never share storage with the scheduler, whatever spare
// capacity the scheduler's slices happen to have.
func TestStateAppendIsolated(t *testing.T) {
	sc := diffScenario{chips: 2, rows: 16, perEp: 2, faults: faults.Config{VRTRate: 2e-3, VRTToggleProb: 0.5}}
	_, host := buildModule(t, sc, 79, nil)
	s, err := onlinetest.New(host, onlinetest.Config{Distances: []int{-48, -16, -8, 8, 16, 48}, RowsPerEpoch: sc.perEp})
	if err != nil {
		t.Fatal(err)
	}
	bogus := memctl.BitAddr{Chip: 99, Bank: 99, Row: 99, Col: 99}
	grewEver, grewSweep := 0, 0
	for i := 0; i < 2*sc.chips*sc.rows/sc.perEp; i++ {
		st := s.State()
		ever := append(st.EverSeen, bogus)
		sweep := append(st.SweepSeen, bogus)
		if _, err := s.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		after := s.State()
		if len(after.EverSeen) > len(st.EverSeen) {
			grewEver++
		}
		if len(after.SweepSeen) > len(st.SweepSeen) {
			grewSweep++
		}
		if ever[len(ever)-1] != bogus || sweep[len(sweep)-1] != bogus {
			t.Fatalf("epoch %d: the scheduler wrote into a caller's appended State", i)
		}
		if slices.Contains(after.EverSeen, bogus) || slices.Contains(after.SweepSeen, bogus) {
			t.Fatalf("epoch %d: a caller's append leaked into the scheduler's sets", i)
		}
	}
	if grewEver < 4 || grewSweep < 4 {
		t.Fatalf("sets grew in only %d/%d epochs; the check is vacuous", grewEver, grewSweep)
	}
}
