package memctl_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"parbor/internal/chaos"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// probeModule builds a module on which every failure mode fires often:
// dense victims plus frequent VRT, marginal, weak and remapped cells
// and a soft error on most row reads.
func probeModule(t *testing.T, v scramble.Vendor, seed uint64, rec obs.Recorder) *dram.Module {
	t.Helper()
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 0.02
	fc := faults.DefaultConfig()
	fc.VRTRate, fc.VRTToggleProb = 5e-3, 0.5
	fc.MarginalRate, fc.MarginalFailProb = 5e-3, 0.5
	fc.WeakCellRate = 5e-3
	fc.RemappedColumnRate, fc.RemappedFailProb = 0.01, 0.5
	fc.SoftErrorPerRowRead = 0.5
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   v,
		Chips:    4,
		Geometry: dram.Geometry{Banks: 2, Rows: 32, Cols: 1024},
		Coupling: cc,
		Faults:   fc,
		Seed:     seed,
		Recorder: rec,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func probeHost(t *testing.T, mod *dram.Module, par int, rec obs.Recorder, plane memctl.FaultPlane) *memctl.Host {
	t.Helper()
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{WaitMs: 512, Parallelism: par, Recorder: rec, Faults: plane})
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// probeRows lists 24 rows across chips and banks out of order, then
// names two of them again, so every probe pass holds duplicates.
func probeRows() []memctl.Row {
	var rows []memctl.Row
	for i := 0; i < 24; i++ {
		rows = append(rows, memctl.Row{Chip: (3 * i) % 4, Bank: i % 2, Row: (7 * i) % 32})
	}
	return append(rows, rows[0], rows[5], rows[5])
}

// probeData fills one data row per entry with content that differs per
// pass and per entry, so a row listed twice holds different data in
// each of its entries.
func probeData(words, n, pass int) [][]uint64 {
	data := make([][]uint64, n)
	x := uint64(pass)*0x9e3779b97f4a7c15 + 1
	for i := range data {
		data[i] = make([]uint64, words)
		for w := range data[i] {
			x = x*6364136223846793005 + 1442695040888963407
			data[i][w] = x ^ x>>29
		}
	}
	return data
}

// TestProbeMatchesPass holds Probe to the compare-path definition of
// the Pass it replaces. On noisy modules of every vendor, serial and
// sharded, over consecutive passes whose lists name rows twice, Probe
// must return exactly the entries whose probed cell is among that
// entry's compare-path failures. A twin host running Pass on the same
// rows must see the same DRAM commands, counters and timing series
// counts, and with a chaos plane attached the same *PassError on every
// pass.
func TestProbeMatchesPass(t *testing.T) {
	ctx := context.Background()
	rows := probeRows()
	for _, v := range scramble.Vendors() {
		for _, par := range []int{1, 4} {
			oracle := probeModule(t, v, 5, nil)
			probeRec, passRec := obs.NewCollector(), obs.NewCollector()
			prober := probeHost(t, probeModule(t, v, 5, probeRec), par, probeRec, nil)
			passer := probeHost(t, probeModule(t, v, 5, passRec), par, passRec, nil)
			g := prober.Geometry()
			hits := 0
			for pass := 0; pass < 4; pass++ {
				data := probeData(g.Words(), len(rows), pass)
				perEntry := memctl.CompareEntriesOracle(oracle, rows, data, prober.WaitMs())
				// Probe a failing cell of most entries that have one,
				// and a fixed column otherwise.
				cells := make([]memctl.BitAddr, len(rows))
				var want []int
				for i, r := range rows {
					cells[i] = memctl.BitAddr{Chip: int16(r.Chip), Bank: int16(r.Bank), Row: int32(r.Row), Col: int32((37*i + 11*pass) % g.Cols)}
					if f := perEntry[i]; len(f) > 0 && i%3 != 0 {
						cells[i].Col = f[(i+pass)%len(f)].Col
					}
					if slices.Contains(perEntry[i], cells[i]) {
						want = append(want, i)
					}
				}
				got, err := prober.Probe(ctx, cells, data, prober.WaitMs())
				if err != nil {
					t.Fatalf("vendor %v par %d pass %d: Probe: %v", v, par, pass, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("vendor %v par %d pass %d: Probe failed entries %v, compare path %v", v, par, pass, got, want)
				}
				if _, err := passer.Pass(ctx, rows, data, passer.WaitMs()); err != nil {
					t.Fatalf("vendor %v par %d pass %d: Pass: %v", v, par, pass, err)
				}
				hits += len(want)
			}
			if hits == 0 || hits == 4*len(rows) {
				t.Fatalf("vendor %v par %d: %d of %d entries failed; the probe was not exercised both ways", v, par, hits, 4*len(rows))
			}
			probeRep, passRep := probeRec.Snapshot("probe"), passRec.Snapshot("pass")
			if !reflect.DeepEqual(probeRep.Commands, passRep.Commands) || !reflect.DeepEqual(probeRep.Counters, passRep.Counters) {
				t.Errorf("vendor %v par %d: Probe commands %v counters %v, Pass commands %v counters %v",
					v, par, probeRep.Commands, probeRep.Counters, passRep.Commands, passRep.Counters)
			}
			for name, ts := range passRep.Timings {
				if n := probeRep.Timings[name].Count; n != ts.Count {
					t.Errorf("vendor %v par %d: series %s has %d Probe samples, %d Pass samples", v, par, name, n, ts.Count)
				}
			}
			if prober.Passes() != passer.Passes() || prober.Attempts() != passer.Attempts() {
				t.Errorf("vendor %v par %d: Probe host at %d passes / %d attempts, Pass host at %d / %d",
					v, par, prober.Passes(), prober.Attempts(), passer.Passes(), passer.Attempts())
			}
		}
	}

	t.Run("chaos", func(t *testing.T) {
		for _, par := range []int{1, 4} {
			plane := func() memctl.FaultPlane {
				p, err := chaos.New(chaos.Config{Seed: 3, WriteFaultProb: 0.01, ReadFaultProb: 0.01}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			prober := probeHost(t, probeModule(t, scramble.VendorB, 8, nil), par, nil, plane())
			passer := probeHost(t, probeModule(t, scramble.VendorB, 8, nil), par, nil, plane())
			g := prober.Geometry()
			cells := make([]memctl.BitAddr, len(rows))
			for i, r := range rows {
				cells[i] = memctl.BitAddr{Chip: int16(r.Chip), Bank: int16(r.Bank), Row: int32(r.Row), Col: int32(i)}
			}
			faulted := 0
			for pass := 0; pass < 12; pass++ {
				data := probeData(g.Words(), len(rows), pass)
				_, perr := prober.Probe(ctx, cells, data, prober.WaitMs())
				_, err := passer.Pass(ctx, rows, data, passer.WaitMs())
				var pe *memctl.PassError
				if errors.As(err, &pe) {
					faulted++
				} else if err != nil {
					t.Fatalf("par %d pass %d: Pass: %v", par, pass, err)
				}
				if !reflect.DeepEqual(perr, err) {
					t.Fatalf("par %d pass %d: Probe error %v, Pass error %v", par, pass, perr, err)
				}
				if prober.Passes() != passer.Passes() || prober.Attempts() != passer.Attempts() {
					t.Fatalf("par %d pass %d: Probe host at %d passes / %d attempts, Pass host at %d / %d",
						par, pass, prober.Passes(), prober.Attempts(), passer.Passes(), passer.Attempts())
				}
			}
			if faulted == 0 || faulted == 12 {
				t.Fatalf("par %d: %d of 12 passes faulted; the plane was not exercised both ways", par, faulted)
			}
		}
	})
}
