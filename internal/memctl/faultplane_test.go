package memctl

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"parbor/internal/obs"
)

// scriptPlane is a deterministic test plane: it faults exactly the
// (op, attempt, chip) combinations listed, with the given error.
type scriptPlane struct {
	faults map[string]error
}

func (p *scriptPlane) key(op string, attempt, chip int) string {
	return fmt.Sprintf("%s/%d/%d", op, attempt, chip)
}

func (p *scriptPlane) BeforeWrite(attempt int, r Row) error {
	return p.faults[p.key("write", attempt, r.Chip)]
}

func (p *scriptPlane) BeforeRead(attempt int, r Row) error {
	return p.faults[p.key("read", attempt, r.Chip)]
}

type transientTestErr struct{}

func (transientTestErr) Error() string   { return "transient test fault" }
func (transientTestErr) Transient() bool { return true }

func allRows(host *Host) ([]Row, [][]uint64) {
	g := host.Geometry()
	var rows []Row
	var data [][]uint64
	for chip := 0; chip < host.Chips(); chip++ {
		for r := 0; r < g.Rows; r++ {
			rows = append(rows, Row{Chip: chip, Bank: 0, Row: r})
			data = append(data, make([]uint64, g.Words()))
		}
	}
	return rows, data
}

func TestIsTransientClassification(t *testing.T) {
	perm := errors.New("permanent")
	if IsTransient(perm) {
		t.Error("plain error classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil error classified transient")
	}
	if !IsTransient(transientTestErr{}) {
		t.Error("Transient()=true error not classified transient")
	}
	wrapped := fmt.Errorf("outer: %w", &ChipFault{Chip: 1, Op: "write", Err: transientTestErr{}})
	if !IsTransient(wrapped) {
		t.Error("wrapped transient chip fault not classified transient")
	}
	permFault := &ChipFault{Chip: 0, Op: "read", Err: perm}
	if IsTransient(permFault) {
		t.Error("chip fault wrapping a permanent error classified transient")
	}
	pe := &PassError{Faults: []*ChipFault{
		{Chip: 0, Op: "write", Err: transientTestErr{}},
		{Chip: 1, Op: "write", Err: transientTestErr{}},
	}}
	if !IsTransient(pe) {
		t.Error("all-transient pass error not classified transient")
	}
	pe.Faults[1].Err = perm
	if IsTransient(pe) {
		t.Error("partially permanent pass error classified transient")
	}
}

func TestFaultedChips(t *testing.T) {
	if _, ok := FaultedChips(errors.New("anonymous")); ok {
		t.Error("unattributed error yielded chips")
	}
	chips, ok := FaultedChips(fmt.Errorf("w: %w", &ChipFault{Chip: 3, Op: "read", Err: errors.New("x")}))
	if !ok || len(chips) != 1 || chips[0] != 3 {
		t.Errorf("chip fault attribution %v/%v, want [3]", chips, ok)
	}
	pe := &PassError{Faults: []*ChipFault{
		{Chip: 0, Op: "write", Err: errors.New("x")},
		{Chip: 2, Op: "write", Err: errors.New("y")},
	}}
	chips, ok = FaultedChips(pe)
	if !ok || len(chips) != 2 || chips[0] != 0 || chips[1] != 2 {
		t.Errorf("pass error attribution %v/%v, want [0 2]", chips, ok)
	}
}

// TestWriteFaultAbortsBeforeWait: a write-phase fault must fail the
// pass before the retention wait is consumed (the chip clock does not
// advance) and before the pass counter increments.
func TestWriteFaultAbortsBeforeWait(t *testing.T) {
	mod := cleanModule(t)
	plane := &scriptPlane{faults: map[string]error{"write/0/1": errors.New("boom")}}
	col := obs.NewCollector()
	host, err := NewHostWithConfig(mod, HostConfig{WaitMs: 100, Faults: plane, Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	now0, pass0 := mod.Chip(0).Clock()
	rows, data := allRows(host)
	_, err = host.Pass(context.Background(), rows, data, host.WaitMs())
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("write fault produced %v, want *PassError", err)
	}
	if len(pe.Faults) != 1 || pe.Faults[0].Chip != 1 || pe.Faults[0].Op != "write" {
		t.Fatalf("pass error %v, want one write fault on chip 1", pe)
	}
	now1, pass1 := mod.Chip(0).Clock()
	if now1 != now0 || pass1 != pass0 {
		t.Errorf("aborted write pass advanced chip clock %v/%d -> %v/%d", now0, pass0, now1, pass1)
	}
	rep := col.Snapshot("t")
	if rep.Counters[CounterPasses] != 0 {
		t.Errorf("aborted pass counted as a test: %v", rep.Counters)
	}
	if rep.Counters[CounterPassFaults] != 1 {
		t.Errorf("pass fault not counted: %v", rep.Counters)
	}
}

// TestReadFaultConsumesWait: a read-phase fault happens after the
// retention wait, so the chip clock has advanced — exactly as on real
// hardware, where the wait cannot be un-spent.
func TestReadFaultConsumesWait(t *testing.T) {
	mod := cleanModule(t)
	plane := &scriptPlane{faults: map[string]error{"read/0/0": errors.New("boom")}}
	host, err := NewHostWithConfig(mod, HostConfig{WaitMs: 100, Faults: plane})
	if err != nil {
		t.Fatal(err)
	}
	now0, _ := mod.Chip(0).Clock()
	rows, data := allRows(host)
	_, err = host.Pass(context.Background(), rows, data, host.WaitMs())
	var pe *PassError
	if !errors.As(err, &pe) || pe.Faults[0].Op != "read" {
		t.Fatalf("read fault produced %v, want read *PassError", err)
	}
	now1, _ := mod.Chip(0).Clock()
	if now1 <= now0 {
		t.Errorf("read-phase fault did not consume the retention wait (clock %v -> %v)", now0, now1)
	}
}

// TestPassErrorDeterministicAcrossParallelism: with several chips
// faulting at once, the assembled PassError must list them in
// ascending chip order whether the shards ran serially or in
// parallel.
func TestPassErrorDeterministicAcrossParallelism(t *testing.T) {
	script := map[string]error{
		"write/0/0": errors.New("a"),
		"write/0/1": errors.New("b"),
	}
	var got []string
	for _, workers := range []int{1, 0} {
		mod := cleanModule(t)
		host, err := NewHostWithConfig(mod, HostConfig{
			WaitMs: 100, Parallelism: workers, Faults: &scriptPlane{faults: script},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, data := allRows(host)
		_, err = host.Pass(context.Background(), rows, data, host.WaitMs())
		var pe *PassError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: %v, want *PassError", workers, err)
		}
		for i := 1; i < len(pe.Faults); i++ {
			if pe.Faults[i-1].Chip >= pe.Faults[i].Chip {
				t.Fatalf("workers=%d: fault order not ascending: %v", workers, pe)
			}
		}
		got = append(got, pe.Error())
	}
	if got[0] != got[1] {
		t.Errorf("serial and parallel pass errors differ:\n  serial:   %s\n  parallel: %s", got[0], got[1])
	}
}

// TestPassCancellation: a cancelled ctx stops the pass promptly, the
// error is ctx.Err(), and no worker goroutines are leaked.
func TestPassCancellation(t *testing.T) {
	host, err := NewHost(cleanModule(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, data := allRows(host)
	if _, err := host.Pass(ctx, rows, data, host.WaitMs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass returned %v, want context.Canceled", err)
	}
	if _, err := host.Verify(ctx, rows, data, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled verify returned %v, want context.Canceled", err)
	}
	if _, err := host.FullPass(ctx, func(_ Row, buf []uint64) []uint64 { return buf }, host.WaitMs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled full pass returned %v, want context.Canceled", err)
	}
	// Give any leaked worker a moment to show up, then compare.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("cancelled passes leaked goroutines: %d -> %d", before, after)
	}
}

// TestNilPlaneBitIdentical: attaching a zero-probability plane (or
// none) must not change a single pass outcome — the chaos extension of
// the observability inertness property.
func TestNilPlaneBitIdentical(t *testing.T) {
	run := func(plane FaultPlane) []BitAddr {
		host, err := NewHostWithConfig(weakModule(t), HostConfig{Faults: plane})
		if err != nil {
			t.Fatal(err)
		}
		rows, data := allRows(host)
		for i := range data {
			for w := range data[i] {
				data[i][w] = ^uint64(0)
			}
		}
		fails, err := host.Pass(context.Background(), rows, data, host.WaitMs())
		if err != nil {
			t.Fatal(err)
		}
		return fails
	}
	plain := run(nil)
	hooked := run(&scriptPlane{faults: map[string]error{}})
	if len(plain) != len(hooked) {
		t.Fatalf("inert plane changed failure count: %d != %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("inert plane changed failure %d: %+v != %+v", i, plain[i], hooked[i])
		}
	}
	if len(plain) == 0 {
		t.Fatal("weak module produced no failures; test is vacuous")
	}
}
