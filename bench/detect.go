package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"parbor/internal/core"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// detectSizes shape the detect workload: Modules distinct modules,
// vendors A, B, C in turn, each Chips x Rows x Cols.
type detectSizes struct {
	Modules int `json:"modules"`
	Chips   int `json:"chips"`
	Rows    int `json:"rows"`
	Cols    int `json:"cols"`
}

// table1Tests is the recursion test count per vendor that the paper's
// Table 1 reports for 8K-bit rows.
var table1Tests = map[scramble.Vendor]int{scramble.VendorA: 90, scramble.VendorB: 66, scramble.VendorC: 90}

var detectVendors = scramble.Vendors()

// detectSim is one module's fingerprint.
type detectSim struct {
	Vendor         string `json:"vendor"`
	Seed           uint64 `json:"seed"`
	SampleSize     int    `json:"sample_size"`
	DiscoveryTests int    `json:"discovery_tests"`
	RecursionTests int    `json:"recursion_tests"`
	FullChipTests  int    `json:"fullchip_tests"`
	Distances      []int  `json:"distances"`
	Failures       int    `json:"failures"`
	Checksum       string `json:"checksum"`
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	Activates      uint64 `json:"activates"`
	Refreshes      uint64 `json:"refreshes"`
	Passes         uint64 `json:"passes"`
	RowsTested     uint64 `json:"rows_tested"`
}

// runDetect is the paper's own job as a closed loop: one module at a
// time goes through discovery, recursion and the full-chip test. It
// stops at the first whole A/B/C round after the measuring time is up;
// latency is a round's mean module run.
func runDetect(ctx context.Context, e *env, tr *tracer) (*phase, error) {
	sz := e.sizes.Detect
	p := newPhase()
	p.serial = true
	root := tr.begin(0, "bench.run", "detect")
	p.root = root.id
	var passUs, moduleMs []float64
	var shardS, sweepS, writeS, readS, passS float64
	// The unit of work is a round of one module per vendor: vendors
	// differ in cost, so a median over single modules would land on
	// whichever vendor happens to sort into the middle.
	var roundS, roundRunS float64
	workers := 0
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && i%len(detectVendors) == 0 {
			n := float64(len(detectVendors))
			p.done(n, roundS)
			p.latMs = append(p.latMs, 1e3*roundRunS/n)
			roundS, roundRunS = 0, 0
			if time.Since(start) >= e.seconds {
				break
			}
		}
		idx := i % sz.Modules
		v := detectVendors[idx%len(detectVendors)]
		seed := mix(e.seed, uint64(idx))
		id := fmt.Sprintf("m%03d", idx)

		span := tr.begin(root.id, "bench.module", id)
		rec := newHostRecorder(tr, id)
		build := tr.begin(span.id, "dram.build", id)
		t0 := time.Now()
		tester, host, err := buildDetectModule(sz, v, seed, rec)
		if err != nil {
			return nil, err
		}
		buildS := time.Since(t0).Seconds()
		build.end()

		t1 := time.Now()
		rep, err := detectModule(ctx, tester, rec, tr, span.id, id)
		runS := time.Since(t1).Seconds()
		span.end()
		p.setupS = append(p.setupS, buildS)
		roundS += buildS + runS
		roundRunS += runS
		p.op(err)
		if err != nil {
			continue
		}
		moduleMs = append(moduleMs, 1e3*runS)
		workers = host.Parallelism()

		truth, err := scramble.New(v)
		if err != nil {
			return nil, err
		}
		nr := rep.Neighbor
		p.check(nr.RecursionTests == table1Tests[v], "module %s (vendor %v): %d recursion tests, want %d", id, v, nr.RecursionTests, table1Tests[v])
		got := slices.Clone(nr.Distances)
		slices.Sort(got)
		p.check(slices.Equal(got, truth.Distances()), "module %s (vendor %v): detected distances %v, want %v", id, v, got, truth.Distances())

		s := detectSim{
			Vendor:         v.String(),
			Seed:           seed,
			SampleSize:     nr.SampleSize,
			DiscoveryTests: nr.DiscoveryTests,
			RecursionTests: nr.RecursionTests,
			FullChipTests:  rep.FullChipTests,
			Distances:      got,
			Failures:       len(rep.AllFailures),
			Checksum:       rep.AllFailures.Checksum(),
			Reads:          rec.command(obs.CmdRead),
			Writes:         rec.command(obs.CmdWrite),
			Activates:      rec.command(obs.CmdActivate),
			Refreshes:      rec.command(obs.CmdRefresh),
			Passes:         rec.counter(memctl.CounterPasses),
			RowsTested:     rec.counter(memctl.CounterRowsTested),
		}
		if err := p.fingerprint(id, s); err != nil {
			return nil, err
		}
		if i < len(detectVendors) {
			// Per-layer counts cover the first A/B/C round.
			for name, n := range map[string]float64{
				"dram.reads": float64(s.Reads), "dram.writes": float64(s.Writes),
				"dram.activates": float64(s.Activates), "dram.refreshes": float64(s.Refreshes),
				"memctl.passes": float64(s.Passes), "memctl.rows_tested": float64(s.RowsTested),
				"core.discovery_tests": float64(s.DiscoveryTests), "core.recursion_tests": float64(s.RecursionTests),
				"core.fullchip_tests": float64(s.FullChipTests),
			} {
				p.layer[name] += n
			}
		}
		passUs = append(passUs, rec.passSamplesUs()...)
		shardS += float64(rec.shardNs.Load()) / 1e9
		w, r := rec.seriesSeconds(memctl.SeriesWriteSweep), rec.seriesSeconds(memctl.SeriesReadSweep)
		writeS += w
		readS += r
		sweepS += w + r
		passS += rec.seriesSeconds(memctl.SeriesPass)
	}
	root.end()

	if sweepS > 0 && workers > 0 {
		// Busy chip-shard time over the time the sweeps held the pool.
		p.layer["memctl.shard_util"] = shardS / (sweepS * float64(workers))
	}
	p.detail["detect.module_p50_ms"] = quantile(moduleMs, 0.5)
	p.detail["detect.modules"] = float64(len(moduleMs))
	p.detail["memctl.pass_p50_us"] = quantile(passUs, 0.5)
	p.detail["memctl.pass_p99_us"] = quantile(passUs, 0.99)
	p.detail["memctl.pass_s"] = passS
	p.detail["memctl.write_sweep_s"] = writeS
	p.detail["memctl.read_sweep_s"] = readS
	p.detail["memctl.wait_s"] = passS - writeS - readS
	p.detail["memctl.shard_workers"] = float64(workers)
	return p, nil
}

// buildDetectModule constructs one module, its test host and a tester.
// The host shards per-chip work over GOMAXPROCS workers.
func buildDetectModule(sz detectSizes, v scramble.Vendor, seed uint64, rec *hostRecorder) (*core.Tester, *memctl.Host, error) {
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	mod, err := dram.NewModule(dram.ModuleConfig{
		Name:     v.String(),
		Vendor:   v,
		Chips:    sz.Chips,
		Geometry: dram.Geometry{Banks: 1, Rows: sz.Rows, Cols: sz.Cols},
		Coupling: cc,
		Faults:   faults.DefaultConfig(),
		Seed:     seed,
		Recorder: rec,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("building module: %w", err)
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Recorder: rec})
	if err != nil {
		return nil, nil, fmt.Errorf("building host: %w", err)
	}
	tester, err := core.New(host, core.Config{Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("building tester: %w", err)
	}
	return tester, host, nil
}

// detectModule runs the pipeline Tester.RunCtx runs, one stage at a
// time so that each stage gets its own span.
func detectModule(ctx context.Context, t *core.Tester, rec *hostRecorder, tr *tracer, parent int64, id string) (*core.Report, error) {
	dn := tr.begin(parent, "core.detect_neighbors", id)
	rec.setParent(dn.id)
	nr, err := t.DetectNeighborsCtx(ctx)
	dn.end()
	if err != nil {
		return nil, fmt.Errorf("module %s: %w", id, err)
	}
	fc := tr.begin(parent, "core.full_chip", id)
	rec.setParent(fc.id)
	fails, tests, err := t.FullChipTestCtx(ctx, nr.Distances)
	fc.end()
	if err != nil {
		return nil, fmt.Errorf("module %s: %w", id, err)
	}
	all := make(core.FailureSet, len(fails)+len(nr.DiscoveryFailures))
	all.Union(nr.DiscoveryFailures)
	all.Union(fails)
	return &core.Report{Neighbor: *nr, FullChipTests: tests, FullChipFailures: fails, AllFailures: all}, nil
}
