package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"parbor/internal/core"
	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/fleet"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
)

// harness is one in-process parbord: a daemon whose event log lives in
// dir/log behind a timingFS, served by an httptest server, and a client
// with one connection per GOMAXPROCS.
type harness struct {
	d   *fleet.Daemon
	srv *httptest.Server
	hc  *http.Client
	fs  *timingFS
	dir string
}

func startHarness(dir string, workers int, fsys *timingFS) (*harness, error) {
	d, err := fleet.NewDaemon(fleet.Config{Workers: workers, LogDir: filepath.Join(dir, "log"), FS: fsys})
	if err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	conns := runtime.GOMAXPROCS(0)
	return &harness{
		d:   d,
		srv: httptest.NewServer(d.Handler()),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		fs:  fsys,
		dir: dir,
	}, nil
}

// close stops serving, closes the daemon's log and removes dir. The
// daemon must already be drained.
func (h *harness) close() error {
	h.hc.CloseIdleConnections()
	h.srv.Close()
	return errors.Join(h.d.Close(), os.RemoveAll(h.dir))
}

// do sends one request and reads the whole response.
func (h *harness) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.srv.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// enroll posts one module and returns it from the registry.
func (h *harness) enroll(ctx context.Context, spec fleet.ModuleSpec) (*fleet.Module, error) {
	body, err := json.Marshal(fleet.EnrollRequest{Spec: spec})
	if err != nil {
		return nil, fmt.Errorf("encoding enrollment: %w", err)
	}
	status, resp, err := h.do(ctx, http.MethodPost, "/v1/modules", body)
	if err != nil {
		return nil, fmt.Errorf("enroll %s: %w", spec.ID, err)
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("enroll %s: status %d: %s", spec.ID, status, bytes.TrimSpace(resp))
	}
	m, ok := h.d.Registry().Get(spec.ID)
	if !ok {
		return nil, fmt.Errorf("enroll %s: not in the registry", spec.ID)
	}
	return m, nil
}

// analytics runs GET /v1/analytics.
func (h *harness) analytics(ctx context.Context) (*fleetlog.Rollup, error) {
	status, body, err := h.do(ctx, http.MethodGet, "/v1/analytics", nil)
	if err != nil {
		return nil, fmt.Errorf("analytics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("analytics: status %d: %s", status, bytes.TrimSpace(body))
	}
	var ru fleetlog.Rollup
	if err := json.Unmarshal(body, &ru); err != nil {
		return nil, fmt.Errorf("analytics: decoding rollup: %w", err)
	}
	return &ru, nil
}

// fleetSpec describes one fleet member: 8 chips x rows x 8K columns of
// vendor v, tested online with the vendor's true neighbor distances.
func fleetSpec(id string, v scramble.Vendor, seed uint64, rows, maxEpochs int) (fleet.ModuleSpec, error) {
	truth, err := scramble.New(v)
	if err != nil {
		return fleet.ModuleSpec{}, err
	}
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	return fleet.ModuleSpec{
		ID:        id,
		Vendor:    v.String(),
		Chips:     8,
		Banks:     1,
		Rows:      rows,
		Cols:      8192,
		Seed:      seed,
		Coupling:  cc,
		Faults:    faults.DefaultConfig(),
		Test:      onlinetest.Config{Distances: truth.Distances(), RowsPerEpoch: 8},
		MaxEpochs: maxEpochs,
	}, nil
}

// moduleSim is one fleet module's fingerprint.
type moduleSim struct {
	Epochs   int    `json:"epochs"`
	Failures int    `json:"failures"`
	Checksum string `json:"checksum"`
}

// rollupTotals is the part of a fleetlog rollup the fingerprints and
// checks compare.
type rollupTotals struct {
	Events         int            `json:"events"`
	Modules        int            `json:"modules"`
	FailingModules int            `json:"failing_modules"`
	Epochs         int            `json:"epochs"`
	Failures       int            `json:"failures"`
	Observations   int            `json:"observations"`
	Transient      int            `json:"transient"`
	Permanent      int            `json:"permanent"`
	ByMode         map[string]int `json:"by_mode,omitempty"`
}

func totalsOf(ru *fleetlog.Rollup) rollupTotals {
	return rollupTotals{
		Events: ru.Events, Modules: ru.Modules, FailingModules: ru.FailingModules, Epochs: ru.Epochs,
		Failures: ru.Failures, Observations: ru.Observations, Transient: ru.Transient, Permanent: ru.Permanent,
		ByMode: ru.ByMode,
	}
}

// fleetSums adds up what a set of modules reports about itself through
// Module.Report and Module.Snapshot.
type fleetSums struct {
	Commands   map[string]uint64    `json:"commands"`
	Passes     uint64               `json:"passes"`
	RowsTested uint64               `json:"rows_tested"`
	Epochs     int                  `json:"epochs"`
	Failures   int                  `json:"failures"`
	Modules    map[string]moduleSim `json:"modules,omitempty"`

	passS, writeS, readS float64
	reconcileErr         error
}

func sumModules(mods []*fleet.Module) fleetSums {
	s := fleetSums{Commands: map[string]uint64{}, Modules: map[string]moduleSim{}}
	for _, m := range mods {
		rep := m.Report()
		if err := rep.Reconcile(); err != nil && s.reconcileErr == nil {
			s.reconcileErr = fmt.Errorf("module %s: %w", m.ID(), err)
		}
		for k, v := range rep.Commands {
			s.Commands[k] += v
		}
		s.Passes += rep.Counters[memctl.CounterPasses]
		s.RowsTested += rep.Counters[memctl.CounterRowsTested]
		s.passS += rep.Timings[memctl.SeriesPass].TotalMs / 1e3
		s.writeS += rep.Timings[memctl.SeriesWriteSweep].TotalMs / 1e3
		s.readS += rep.Timings[memctl.SeriesReadSweep].TotalMs / 1e3
		st := m.Snapshot().Scheduler
		fs := make(core.FailureSet, len(st.EverSeen))
		fs.Add(st.EverSeen)
		s.Epochs += st.Epochs
		s.Failures += len(st.EverSeen)
		s.Modules[m.ID()] = moduleSim{Epochs: st.Epochs, Failures: len(st.EverSeen), Checksum: fs.Checksum()}
	}
	return s
}

// add merges o's totals into s. o's reconcile result is dropped: it may
// come from a module whose quantum was still running.
func (s *fleetSums) add(o fleetSums) {
	for k, v := range o.Commands {
		s.Commands[k] += v
	}
	for k, v := range o.Modules {
		s.Modules[k] = v
	}
	s.Passes += o.Passes
	s.RowsTested += o.RowsTested
	s.Epochs += o.Epochs
	s.Failures += o.Failures
	s.passS += o.passS
	s.writeS += o.writeS
	s.readS += o.readS
}

// addLayerCounts records the first round's simulated statistics.
func (s fleetSums) addLayerCounts(p *phase) {
	p.layer["dram.reads"] += float64(s.Commands["read"])
	p.layer["dram.writes"] += float64(s.Commands["write"])
	p.layer["dram.activates"] += float64(s.Commands["activate"])
	p.layer["dram.refreshes"] += float64(s.Commands["refresh"])
	p.layer["memctl.passes"] += float64(s.Passes)
	p.layer["memctl.rows_tested"] += float64(s.RowsTested)
	p.layer["onlinetest.epochs"] += float64(s.Epochs)
	p.layer["onlinetest.failures"] += float64(s.Failures)
}

// addBusy adds the modules' host time to the memctl shares.
func (s fleetSums) addBusy(p *phase) {
	p.busy["memctl.write_sweep_pct"] += s.writeS
	p.busy["memctl.read_sweep_pct"] += s.readS
	p.busy["memctl.wait_pct"] += s.passS - s.writeS - s.readS
}

// sweepSizes shape the fleet_sweep workload: a batch enrolls Modules
// modules of Rows rows each and sweeps them MaxEpochs epochs.
type sweepSizes struct {
	Modules   int `json:"modules"`
	Rows      int `json:"rows"`
	MaxEpochs int `json:"max_epochs"`
}

// batchSim fingerprints one fleet_sweep batch.
type batchSim struct {
	fleetSums
	Rollup    rollupTotals `json:"rollup"`
	Analytics rollupTotals `json:"analytics"`
}

// runSweep is parbord's batch job, repeated until the measuring time is
// up: a fresh daemon, Modules enrollments through POST /v1/modules, then
// Start, Quiesce, Drain and Close with one worker per GOMAXPROCS. Every
// batch sweeps the same modules, so every batch must fingerprint alike.
func runSweep(ctx context.Context, e *env, tr *tracer) (*phase, error) {
	sz := e.sizes.Sweep
	specs := make([]fleet.ModuleSpec, sz.Modules)
	for i := range specs {
		sp, err := fleetSpec(fmt.Sprintf("sweep-%04d", i), scramble.Vendors()[i%3], mix(e.seed, uint64(1000+i)), sz.Rows, sz.MaxEpochs)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	workers := runtime.GOMAXPROCS(0)
	p := newPhase()
	root := tr.begin(0, "bench.run", "fleet_sweep")
	p.root = root.id
	var sweepS, passS float64
	var enrollMs, drainMs, marshalUs, ckptBytes []float64
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < e.seconds; b++ {
		out, err := sweepBatch(ctx, e, specs, workers, tr, root.id, b, p)
		if err != nil {
			return nil, err
		}
		// Collect the batch and return its memory before the next one
		// enrolls, so that peak RSS is one batch's rather than two
		// overlapping in the heap.
		debug.FreeOSMemory()
		sweepS += out.sweepS
		passS += out.sums.passS
		enrollMs = append(enrollMs, out.enrollMs...)
		drainMs = append(drainMs, out.drainMs)
		marshalUs = append(marshalUs, out.marshalUs...)
		ckptBytes = append(ckptBytes, out.ckptBytes...)
		if b == 0 {
			out.sums.addLayerCounts(p)
			p.layer["fleetlog.appends"] = float64(out.io.appends)
			p.layer["fleetlog.bytes_written"] = float64(out.io.appendBytes)
			p.layer["checkpoint.bytes_p50"] = quantile(out.ckptBytes, 0.5)
			p.layer["api.requests"] = float64(len(specs) + 1)
		}
	}
	root.end()
	if sweepS > 0 {
		p.layer["fleet.worker_util"] = passS / (float64(workers) * sweepS)
	}
	p.detail["fleet.workers"] = float64(workers)
	p.detail["fleet.non_pass_s"] = float64(workers)*sweepS - passS
	p.detail["fleet.enroll_p50_ms"] = quantile(enrollMs, 0.5)
	p.detail["fleet.enroll_p99_ms"] = quantile(enrollMs, 0.99)
	p.detail["fleet.drain_ms"] = quantile(drainMs, 0.5)
	p.detail["checkpoint.marshal_p50_us"] = quantile(marshalUs, 0.5)
	return p, nil
}

// batchOut is what one batch measured.
type batchOut struct {
	sweepS    float64
	drainMs   float64
	enrollMs  []float64
	marshalUs []float64
	ckptBytes []float64
	sums      fleetSums
	io        fsStats
}

func sweepBatch(ctx context.Context, e *env, specs []fleet.ModuleSpec, workers int, tr *tracer, parent int64, b int, p *phase) (*batchOut, error) {
	id := fmt.Sprintf("batch-%d", b)
	span := tr.begin(parent, "bench.batch", id)
	defer span.end()
	dir, err := os.MkdirTemp(e.dir, "sweep-")
	if err != nil {
		return nil, fmt.Errorf("creating batch dir: %w", err)
	}
	fsys := newTimingFS(tr)
	fsys.parent.Store(span.id)
	out := &batchOut{}

	t0 := time.Now()
	h, err := startHarness(dir, workers, fsys)
	if err != nil {
		return nil, err
	}
	mods := make([]*fleet.Module, 0, len(specs))
	for _, sp := range specs {
		es := tr.begin(span.id, "api.enroll", sp.ID)
		te := time.Now()
		m, err := h.enroll(ctx, sp)
		out.enrollMs = append(out.enrollMs, 1e3*time.Since(te).Seconds())
		es.end()
		p.op(err)
		if err == nil {
			mods = append(mods, m)
		}
	}
	p.setupS = append(p.setupS, time.Since(t0).Seconds())

	t1 := time.Now()
	sw := tr.begin(span.id, "fleet.sweep", id)
	fsys.parent.Store(sw.id)
	h.d.Start(ctx)
	h.d.Quiesce()
	sw.end()
	t2 := time.Now()
	dr := tr.begin(span.id, "fleet.drain", id)
	fsys.parent.Store(dr.id)
	drainErr := h.d.Drain()
	closeErr := h.d.Close()
	dr.end()
	out.drainMs = 1e3 * time.Since(t2).Seconds()
	out.sweepS = time.Since(t1).Seconds()
	out.io = fsys.stats()
	fsys.parent.Store(span.id)
	p.op(errors.Join(drainErr, closeErr))

	ru := h.d.Rollup()
	p.done(float64(ru.Epochs), out.sweepS)
	p.latMs = append(p.latMs, 1e3*out.sweepS)
	err = h.d.Reconcile()
	p.check(err == nil, "%s: reconcile: %v", id, err)
	p.check(ru.Done == len(specs) && ru.Failed == 0, "%s: %d of %d modules done, %d failed", id, ru.Done, len(specs), ru.Failed)

	as := tr.begin(span.id, "api.analytics", id)
	fsys.parent.Store(as.id)
	an, err := h.analytics(ctx)
	as.end()
	fsys.parent.Store(span.id)
	p.op(err)
	if an == nil {
		an = &fleetlog.Rollup{}
	}
	want := len(specs) * specs[0].MaxEpochs
	p.check(ru.Epochs == want && an.Events == ru.Epochs && an.Epochs == ru.Epochs,
		"%s: %d epochs swept, %d logged events, %d logged epochs; want %d", id, ru.Epochs, an.Events, an.Epochs, want)

	for _, m := range mods {
		cs := tr.begin(span.id, "checkpoint.marshal", m.ID())
		tm := time.Now()
		data, err := m.Snapshot().Marshal()
		out.marshalUs = append(out.marshalUs, 1e6*time.Since(tm).Seconds())
		cs.end()
		p.op(err)
		out.ckptBytes = append(out.ckptBytes, float64(len(data)))
	}

	out.sums = sumModules(mods)
	out.sums.addBusy(p)
	p.check(out.sums.reconcileErr == nil, "%s: %v", id, out.sums.reconcileErr)
	sim := batchSim{
		fleetSums: out.sums,
		Rollup:    rollupTotals{Modules: ru.Modules, FailingModules: ru.FailingModules, Epochs: ru.Epochs, Failures: ru.Failures, ByMode: ru.ByMode},
		Analytics: totalsOf(an),
	}
	p.op(h.close())
	if err := p.fingerprint("batch", sim); err != nil {
		return nil, err
	}
	return out, nil
}
