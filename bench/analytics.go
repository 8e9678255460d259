package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
)

// analyticsSizes shape the analytics workload's synthetic log: Modules
// modules with Epochs epochs each on average, each module with up to
// WeakCells weak cells.
type analyticsSizes struct {
	Modules   int `json:"modules"`
	Epochs    int `json:"epochs"`
	WeakCells int `json:"weak_cells"`
	Setups    int `json:"setups"`
}

// Synthetic failure behaviour: a weak cell fails in an epoch with
// probability weakFailProb; each epoch sees a geometric number of fresh
// transient cells with mean freshPerEpoch; a replayed (duplicate) event
// follows an event with probability replayProb, as after a crash
// between logging an epoch and checkpointing it.
const (
	weakFailProb  = 0.5
	freshPerEpoch = 0.5
	replayProb    = 0.01
	weakRows      = 1024
)

// logTruth is the rollup the generator knows by construction.
type logTruth struct {
	Events, Modules, FailingModules, Epochs      int
	Failures, Observations, Transient, Permanent int
}

// writeLog generates the seeded synthetic log through fleetlog.Writer
// and returns its ground truth. Modules draw failures from a fixed
// weak-cell population (rows below weakRows) plus fresh transient cells
// (each in a row of its own above weakRows, so none repeats); events
// interleave modules epoch by epoch, as a fleet logs them.
func writeLog(dir string, fsys *timingFS, seed uint64, sz analyticsSizes) (logTruth, error) {
	rng := rand.New(rand.NewPCG(seed, 0xa7a))
	type module struct {
		id      string
		epochs  int
		weak    []memctl.BitAddr
		hits    []int
		fresh   int
		nextRow int32
	}
	mods := make([]module, sz.Modules)
	maxEpochs := 0
	for i := range mods {
		m := &mods[i]
		m.id = fmt.Sprintf("log-%05d", i)
		m.epochs = sz.Epochs/2 + rng.IntN(sz.Epochs+1)
		maxEpochs = max(maxEpochs, m.epochs)
		seen := map[memctl.BitAddr]bool{}
		for n := rng.IntN(sz.WeakCells + 1); len(m.weak) < n; {
			a := memctl.BitAddr{Chip: int16(rng.IntN(8)), Row: int32(rng.IntN(weakRows)), Col: int32(rng.IntN(8192))}
			if !seen[a] {
				seen[a] = true
				m.weak = append(m.weak, a)
			}
		}
		m.hits = make([]int, len(m.weak))
		m.nextRow = weakRows
	}
	w, err := fleetlog.OpenWriter(dir, fleetlog.WriterOptions{FS: fsys})
	if err != nil {
		return logTruth{}, err
	}
	var t logTruth
	var fails []memctl.BitAddr
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		for i := range mods {
			m := &mods[i]
			if epoch > m.epochs {
				continue
			}
			fails = fails[:0]
			for k, a := range m.weak {
				if rng.Float64() < weakFailProb {
					fails = append(fails, a)
					m.hits[k]++
				}
			}
			for rng.Float64() < freshPerEpoch/(1+freshPerEpoch) {
				fails = append(fails, memctl.BitAddr{Chip: int16(rng.IntN(8)), Row: m.nextRow, Col: int32(rng.IntN(8192))})
				m.nextRow++
				m.fresh++
			}
			ev := fleetlog.Event{Module: m.id, Epoch: epoch, Fails: fails}
			if err := w.Append(ev); err != nil {
				w.Close()
				return logTruth{}, err
			}
			t.Events++
			t.Epochs++
			if rng.Float64() < replayProb {
				if err := w.Append(ev); err != nil {
					w.Close()
					return logTruth{}, err
				}
				t.Events++
			}
		}
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return logTruth{}, err
	}
	if err := w.Close(); err != nil {
		return logTruth{}, err
	}
	t.Modules = len(mods)
	for _, m := range mods {
		failures := m.fresh
		t.Transient += m.fresh
		t.Observations += m.fresh
		for _, h := range m.hits {
			if h == 0 {
				continue
			}
			failures++
			t.Observations += h
			if h >= 2 {
				t.Permanent++
			} else {
				t.Transient++
			}
		}
		t.Failures += failures
		if failures > 0 {
			t.FailingModules++
		}
	}
	return t, nil
}

// analyticsSim fingerprints one query's rollup.
type analyticsSim struct {
	rollupTotals
	PerModuleHash string `json:"per_module_hash"`
}

// runAnalytics is the read side of fleetlog: set-up writes the
// synthetic log (several times, keeping the last), then GET
// /v1/analytics classifies the whole log with the default key budget,
// repeatedly, until the measuring time is up. No simulation runs.
func runAnalytics(ctx context.Context, e *env, tr *tracer) (*phase, error) {
	sz := e.sizes.Analytics
	p := newPhase()
	p.serial = true
	fsys := newTimingFS(tr)
	var dir string
	var truth logTruth
	var written fsStats
	for r := 0; r < sz.Setups; r++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("removing log: %w", err)
			}
		}
		var err error
		if dir, err = os.MkdirTemp(e.dir, "analytics-"); err != nil {
			return nil, fmt.Errorf("creating log dir: %w", err)
		}
		before := fsys.stats()
		t0 := time.Now()
		if truth, err = writeLog(filepath.Join(dir, "log"), fsys, e.seed, sz); err != nil {
			return nil, fmt.Errorf("writing log: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		after := fsys.stats()
		written = fsStats{appends: after.appends - before.appends, appendBytes: after.appendBytes - before.appendBytes}
	}
	h, err := startHarness(dir, 1, fsys)
	if err != nil {
		return nil, err
	}
	p.layer["fleetlog.appends"] = float64(written.appends)
	p.layer["fleetlog.bytes_written"] = float64(written.appendBytes)

	root := tr.begin(0, "bench.run", "analytics")
	p.root = root.id
	var readBytes int64
	start := time.Now()
	for q := 0; q == 0 || time.Since(start) < e.seconds; q++ {
		id := fmt.Sprintf("query-%d", q)
		before := fsys.stats()
		qs := tr.begin(root.id, "api.analytics", id)
		fsys.parent.Store(qs.id)
		t0 := time.Now()
		ru, err := h.analytics(ctx)
		lat := time.Since(t0)
		qs.end()
		fsys.parent.Store(root.id)
		// The scan ends when the iterator closes the last segment; what
		// follows is the classifier's Finish and the response.
		tr.split(qs.id, fsys.lastSegClose.Load(), "fleetlog.observe", "fleetlog.finish")
		p.op(err)
		if err != nil {
			continue
		}
		p.done(float64(ru.Events), lat.Seconds())
		p.latMs = append(p.latMs, 1e3*lat.Seconds())
		after := fsys.stats()
		readBytes += after.readBytes - before.readBytes
		if q == 0 {
			p.layer["fleetlog.spill_runs"] = float64(after.spillRuns - before.spillRuns)
			p.layer["fleetlog.spill_bytes"] = float64(after.spillBytes - before.spillBytes)
			p.layer["api.requests"] = 1
		}

		got := totalsOf(ru)
		seen := logTruth{
			Events: got.Events, Modules: got.Modules, FailingModules: got.FailingModules, Epochs: got.Epochs,
			Failures: got.Failures, Observations: got.Observations, Transient: got.Transient, Permanent: got.Permanent,
		}
		p.check(seen == truth && ru.Truncations == 0, "%s: rollup %+v (truncations %d), generator truth %+v", id, seen, ru.Truncations, truth)
		perModule, err := json.Marshal(ru.PerModule)
		if err != nil {
			return nil, fmt.Errorf("encoding rollup: %w", err)
		}
		hash := fnv.New64a()
		hash.Write(perModule)
		if err := p.fingerprint("query", analyticsSim{rollupTotals: got, PerModuleHash: fmt.Sprintf("%016x", hash.Sum64())}); err != nil {
			return nil, err
		}
	}
	root.end()
	p.op(h.close())
	p.detail["fleetlog.events"] = float64(truth.Events)
	p.detail["fleetlog.observations"] = float64(truth.Observations)
	p.detail["fleetlog.log_bytes"] = float64(written.appendBytes)
	p.detail["fleetlog.read_bytes"] = float64(readBytes)
	return p, nil
}
