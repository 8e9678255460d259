package memctl

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"parbor/internal/dram"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// comparePassOracle is the compare-path definition of a row-list pass,
// spelled out on the chips directly: write every listed row in list
// order, wait, refresh everything but the listed rows, then read each
// listed row back and diff it against its own data entry. Host.Pass
// reads through failure deltas instead, and must agree with this on
// every input, including lists that name a row twice.
func comparePassOracle(mod *dram.Module, rows []Row, data [][]uint64, waitMs float64) []BitAddr {
	var fails []BitAddr
	for _, f := range compareEntriesOracle(mod, rows, data, waitMs) {
		fails = append(fails, f...)
	}
	return fails
}

// compareEntriesOracle is comparePassOracle with each list entry's
// mismatches kept apart: entry i of the result holds the failures of
// rows[i] against data[i].
func compareEntriesOracle(mod *dram.Module, rows []Row, data [][]uint64, waitMs float64) [][]BitAddr {
	for i, r := range rows {
		mod.Chip(r.Chip).WriteRow(r.Bank, r.Row, data[i])
	}
	mod.Wait(waitMs)
	paused := make([][]int, mod.Chips())
	for _, r := range rows {
		paused[r.Chip] = append(paused[r.Chip], mod.Chip(r.Chip).FlatRowIndex(r.Bank, r.Row))
	}
	for chip := range paused {
		mod.Chip(chip).AutoRefresh(paused[chip])
	}
	g := mod.Geometry()
	got := make([]uint64, g.Words())
	fails := make([][]BitAddr, len(rows))
	for i, r := range rows {
		mod.Chip(r.Chip).ReadRow(r.Bank, r.Row, got)
		fails[i] = appendMismatches(nil, r, data[i], got, g.LastWordMask())
	}
	return fails
}

// filledRow returns a row buffer holding w in every word.
func filledRow(words int, w uint64) []uint64 {
	buf := make([]uint64, words)
	for i := range buf {
		buf[i] = w
	}
	return buf
}

// TestPassDeltaMatchesComparePath pins the exactness of the delta
// read sweep: on failure-dense modules of every vendor, Pass returns
// exactly the mismatches of the compare path, serial and sharded, over
// several consecutive passes.
func TestPassDeltaMatchesComparePath(t *testing.T) {
	// 32 distinct rows, interleaved across chips and banks out of order.
	var rows []Row
	for i := 0; i < 32; i++ {
		rows = append(rows, Row{Chip: (3 * i) % 4, Bank: i % 2, Row: (7 * i) % 32})
	}
	for _, v := range scramble.Vendors() {
		for _, par := range []int{1, 4} {
			oracleMod := failyModule(t, v, 5)
			host, err := NewHostWithConfig(failyModule(t, v, 5), HostConfig{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			words := host.Geometry().Words()
			total := 0
			for pass, w := range []uint64{^uint64(0), 0, 0xaaaaaaaaaaaaaaaa, 0x5555555555555555} {
				data := make([][]uint64, len(rows))
				for i := range data {
					data[i] = filledRow(words, w)
				}
				want := comparePassOracle(oracleMod, rows, data, host.WaitMs())
				got, err := host.Pass(context.Background(), rows, data, host.WaitMs())
				if err != nil {
					t.Fatalf("vendor %v par %d pass %d: %v", v, par, pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("vendor %v par %d pass %d: delta read %v, compare path %v", v, par, pass, got, want)
				}
				total += len(got)
			}
			if total == 0 {
				t.Fatalf("vendor %v par %d: degenerate test, no failures at all", v, par)
			}
		}
	}
}

// TestPassDuplicateRowMatchesComparePath: when a row-list pass names
// the same row twice with different data, the chip keeps only the
// later write, so the earlier entry reads back mismatching its own
// data. The delta read would report nothing there; Pass must detect
// the duplicate and return exactly what the compare path returns.
func TestPassDuplicateRowMatchesComparePath(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		for _, par := range []int{1, 4} {
			host, err := NewHostWithConfig(cleanModule(t), HostConfig{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			words := host.Geometry().Words()
			first := filledRow(words, 0)
			first[2] = 0b1011 // differs from the second write in 3 bits
			second := filledRow(words, 0)
			rows := []Row{{Chip: 0, Bank: 0, Row: 4}, {Chip: 1, Bank: 0, Row: 4}, {Chip: 0, Bank: 0, Row: 4}}
			got, err := host.Pass(context.Background(), rows, [][]uint64{first, second, second}, host.WaitMs())
			if err != nil {
				t.Fatal(err)
			}
			var want []BitAddr
			for _, col := range []int32{128, 129, 131} {
				want = append(want, BitAddr{Chip: 0, Bank: 0, Row: 4, Col: col})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("par %d: duplicate-row pass returned %v, want %v", par, got, want)
			}
			// The next pass without a duplicate is back on the delta
			// path and sees a clean module.
			got, err = host.Pass(context.Background(), rows[:2], [][]uint64{first, second}, host.WaitMs())
			if err != nil || len(got) != 0 {
				t.Fatalf("par %d: follow-up pass returned %v, %v; want no failures", par, got, err)
			}
		}
	})
	t.Run("faily", func(t *testing.T) {
		for _, v := range scramble.Vendors() {
			for _, par := range []int{1, 4} {
				oracleMod := failyModule(t, v, 9)
				host, err := NewHostWithConfig(failyModule(t, v, 9), HostConfig{WaitMs: 512, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				words := host.Geometry().Words()
				rows := []Row{
					{Chip: 1, Bank: 0, Row: 8}, {Chip: 2, Bank: 1, Row: 3},
					{Chip: 1, Bank: 0, Row: 8}, {Chip: 0, Bank: 1, Row: 12},
					{Chip: 2, Bank: 1, Row: 3}, {Chip: 1, Bank: 0, Row: 8},
				}
				data := [][]uint64{
					filledRow(words, ^uint64(0)), filledRow(words, 0),
					filledRow(words, 0xaaaaaaaaaaaaaaaa), filledRow(words, ^uint64(0)),
					filledRow(words, ^uint64(0)), filledRow(words, 0x5555555555555555),
				}
				want := comparePassOracle(oracleMod, rows, data, 512)
				got, err := host.Pass(context.Background(), rows, data, 512)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("vendor %v par %d: duplicate-row pass %d failures, compare path %d", v, par, len(got), len(want))
				}
			}
		}
	})
}

// planeSpec configures a countingPlane: the one row op it rejects
// (every attempt), and the op count after which it cancels the pass.
type planeSpec struct {
	rejectOp  string // "write" or "read"; empty rejects nothing
	rejectRow Row

	cancelOp    string
	cancelAfter int64
}

// countingPlane is a fault plane that lets every operation through
// except the one its spec rejects, counts the operations it let
// through — exactly the rows the chips touched — and can cancel the
// pass's context after a given number of them.
type countingPlane struct {
	planeSpec
	cancel context.CancelFunc

	writes, reads atomic.Int64
}

func (p *countingPlane) allow(op string, r Row, n *atomic.Int64) error {
	if op == p.rejectOp && r == p.rejectRow {
		return fmt.Errorf("injected %s fault", op)
	}
	if c := n.Add(1); op == p.cancelOp && c == p.cancelAfter {
		p.cancel()
	}
	return nil
}

func (p *countingPlane) BeforeWrite(_ int, r Row) error { return p.allow("write", r, &p.writes) }
func (p *countingPlane) BeforeRead(_ int, r Row) error  { return p.allow("read", r, &p.reads) }

// TestCommandTotalsSurviveShardAbort: chips count their commands
// locally and the host flushes them once per shard, so a shard that
// aborts — on a fault-plane rejection or a cancelled context — must
// still deliver every command it issued. After each aborted pass the
// recorder's activate, write and read totals must equal the rows the
// chips actually touched, and the report must reconcile.
func TestCommandTotalsSurviveShardAbort(t *testing.T) {
	cases := []struct {
		name     string
		full     bool
		spec     planeSpec
		wantPass bool // the pass error is a *PassError (else ctx.Err())
	}{
		{name: "pass/write-fault", spec: planeSpec{rejectOp: "write", rejectRow: Row{Chip: 1, Bank: 1, Row: 4}}, wantPass: true},
		{name: "pass/read-fault", spec: planeSpec{rejectOp: "read", rejectRow: Row{Chip: 2, Bank: 0, Row: 7}}, wantPass: true},
		{name: "pass/cancel-in-write", spec: planeSpec{cancelOp: "write", cancelAfter: 70}},
		{name: "pass/cancel-in-read", spec: planeSpec{cancelOp: "read", cancelAfter: 50}},
		{name: "fullpass/write-fault", full: true, spec: planeSpec{rejectOp: "write", rejectRow: Row{Chip: 3, Bank: 0, Row: 20}}, wantPass: true},
		{name: "fullpass/read-fault", full: true, spec: planeSpec{rejectOp: "read", rejectRow: Row{Chip: 0, Bank: 1, Row: 2}}, wantPass: true},
		{name: "fullpass/cancel-in-read", full: true, spec: planeSpec{cancelOp: "read", cancelAfter: 90}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", tc.name, par), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				plane := &countingPlane{planeSpec: tc.spec, cancel: cancel}
				col := obs.NewCollector()
				mod := failyModule(t, scramble.VendorB, 2)
				mod.SetRecorder(col)
				host, err := NewHostWithConfig(mod, HostConfig{WaitMs: 512, Parallelism: par, Faults: plane, Recorder: col})
				if err != nil {
					t.Fatal(err)
				}
				g := host.Geometry()
				var rows []Row
				var data [][]uint64
				for chip := 0; chip < host.Chips(); chip++ {
					for bank := 0; bank < g.Banks; bank++ {
						for r := 0; r < g.Rows; r++ {
							rows = append(rows, Row{Chip: chip, Bank: bank, Row: r})
							data = append(data, filledRow(g.Words(), ^uint64(0)))
						}
					}
				}
				if tc.full {
					_, err = host.FullPass(ctx, checker, 512)
				} else {
					_, err = host.Pass(ctx, rows, data, 512)
				}
				var pe *PassError
				if tc.wantPass && !errors.As(err, &pe) {
					t.Fatalf("pass returned %v, want a *PassError", err)
				}
				if !tc.wantPass && !errors.Is(err, context.Canceled) {
					t.Fatalf("pass returned %v, want context.Canceled", err)
				}
				// A single-row read flushes on its own.
				if err := host.ReadRowInto(context.Background(), Row{Chip: 1, Bank: 0, Row: 3}, make([]uint64, g.Words())); err != nil {
					t.Fatal(err)
				}
				w, r := uint64(plane.writes.Load()), uint64(plane.reads.Load())
				if w+r == 0 || w == uint64(len(rows)) && r == uint64(len(rows))+1 {
					t.Fatalf("degenerate case: %d writes, %d reads — the pass did not abort mid-sweep", w, r)
				}
				if got := col.CommandCount(obs.CmdWrite); got != w {
					t.Errorf("write commands %d, rows written %d", got, w)
				}
				if got := col.CommandCount(obs.CmdRead); got != r {
					t.Errorf("read commands %d, rows read %d", got, r)
				}
				if got := col.CommandCount(obs.CmdActivate); got != w+r {
					t.Errorf("activate commands %d, rows touched %d", got, w+r)
				}
				if err := col.Snapshot("abort").Reconcile(); err != nil {
					t.Errorf("Reconcile: %v", err)
				}
			})
		}
	}
}
