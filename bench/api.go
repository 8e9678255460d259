package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parbor/internal/fleet"
	"parbor/internal/scramble"
)

// apiSizes shape the fleet_api workload: Modules unbounded modules
// sweep while an open loop sends Rate requests per second; modules the
// load enrolls stop after EnrollEpochs epochs.
type apiSizes struct {
	Modules      int     `json:"modules"`
	Rows         int     `json:"rows"`
	Rate         float64 `json:"rate_per_s"`
	EnrollEpochs int     `json:"enroll_max_epochs"`
	Setups       int     `json:"setups"`
}

// apiMix is the operator traffic mix: reads of one module's status and
// checkpoint, fleet-wide listings and rollups, and writes beside them.
var apiMix = []struct {
	route string
	share float64
}{
	{"status", 0.60}, {"checkpoint", 0.20}, {"list", 0.05}, {"rollup", 0.05}, {"enroll", 0.05}, {"retire", 0.05},
}

// retireDelay is how long before its retirement a module the load
// enrolls must have been due, so that the enrollment has landed.
const retireDelay = time.Second

// lateLimit is how far behind its due time a request may be sent
// before it counts as late. A healthy run sends about 1% of requests
// late, when a slow response holds both connections; when more than
// maxLatePct are late, the load has fallen behind its schedule and the
// run is invalid.
const (
	lateLimit  = 10 * time.Millisecond
	maxLatePct = 10
)

// apiReq is one scheduled request.
type apiReq struct {
	route  string
	method string
	path   string
	body   []byte
	due    time.Duration // after the start of the load
	module string        // the module a retirement removes
}

// apiSchedule builds the open-loop schedule: evenly spaced requests
// whose routes and targets are drawn from the seed. Reads go to the
// first three quarters of the base modules, which are never retired.
// Retirements take the oldest module the load enrolled at least
// retireDelay earlier, else one of the last quarter of the base
// modules.
func apiSchedule(seed uint64, sz apiSizes, window time.Duration, base []string) ([]apiReq, error) {
	rng := rand.New(rand.NewPCG(seed, 0xa91))
	n := int(sz.Rate * window.Seconds())
	spacing := time.Duration(float64(time.Second) / sz.Rate)
	stable, retirable := base[:len(base)*3/4], base[len(base)*3/4:]
	type enrolled struct {
		id  string
		due time.Duration
	}
	var pending []enrolled
	out := make([]apiReq, 0, n)
	for i := 0; i < n; i++ {
		q := apiReq{method: http.MethodGet, due: time.Duration(i) * spacing}
		r := rng.Float64()
		for _, m := range apiMix {
			q.route = m.route
			if r < m.share {
				break
			}
			r -= m.share
		}
		if q.route == "retire" {
			switch {
			case len(pending) > 0 && pending[0].due+retireDelay <= q.due:
				q.module, pending = pending[0].id, pending[1:]
			case len(retirable) > 0:
				q.module, retirable = retirable[0], retirable[1:]
			default:
				q.route = "status"
			}
		}
		switch q.route {
		case "status":
			q.path = "/v1/modules/" + stable[rng.IntN(len(stable))]
		case "checkpoint":
			q.path = "/v1/modules/" + stable[rng.IntN(len(stable))] + "/checkpoint"
		case "list":
			q.path = "/v1/modules"
		case "rollup":
			q.path = "/v1/rollup"
		case "retire":
			q.method, q.path = http.MethodDelete, "/v1/modules/"+q.module
		case "enroll":
			id := fmt.Sprintf("api-%05d", i)
			sp, err := fleetSpec(id, scramble.Vendors()[rng.IntN(3)], mix(seed, uint64(3000+i)), sz.Rows, sz.EnrollEpochs)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(fleet.EnrollRequest{Spec: sp})
			if err != nil {
				return nil, fmt.Errorf("encoding enrollment: %w", err)
			}
			q.method, q.path, q.body = http.MethodPost, "/v1/modules", body
			pending = append(pending, enrolled{id, q.due})
		}
		out = append(out, q)
	}
	return out, nil
}

// apiResult is what one request saw.
type apiResult struct {
	latency time.Duration // from the due time to the end of the response
	late    time.Duration // from the due time to the send
	status  int
	bytes   int
	err     error
}

// scheduleSim fingerprints the schedule a seed and window produce.
type scheduleSim struct {
	Requests int            `json:"requests"`
	ByRoute  map[string]int `json:"by_route"`
	Hash     string         `json:"hash"`
}

// runAPI is operator traffic against a sweeping daemon: Modules
// unbounded modules run on max(1, GOMAXPROCS-1) workers, leaving a core
// for the API, while GOMAXPROCS connections send the schedule as an open
// loop for the measuring time.
func runAPI(ctx context.Context, e *env, tr *tracer) (*phase, error) {
	sz := e.sizes.API
	workers := max(1, runtime.GOMAXPROCS(0)-1)
	p := newPhase()
	base := make([]fleet.ModuleSpec, sz.Modules)
	baseIDs := make([]string, sz.Modules)
	for i := range base {
		sp, err := fleetSpec(fmt.Sprintf("base-%04d", i), scramble.Vendors()[i%3], mix(e.seed, uint64(2000+i)), sz.Rows, 0)
		if err != nil {
			return nil, err
		}
		base[i], baseIDs[i] = sp, sp.ID
	}
	sched, err := apiSchedule(e.seed, sz, e.seconds, baseIDs)
	if err != nil {
		return nil, err
	}
	sim := scheduleSim{Requests: len(sched), ByRoute: map[string]int{}}
	hash := fnv.New64a()
	for _, q := range sched {
		sim.ByRoute[q.route]++
		fmt.Fprintf(hash, "%s %s %d\n", q.method, q.path, q.due)
	}
	sim.Hash = fmt.Sprintf("%016x", hash.Sum64())
	if err := p.fingerprint("schedule", sim); err != nil {
		return nil, err
	}

	// Set up several times and keep the last daemon.
	fsys := newTimingFS(tr)
	var h *harness
	for r := 0; r < sz.Setups; r++ {
		if h != nil {
			p.op(h.close())
			h = nil
			debug.FreeOSMemory() // as between fleet_sweep batches
		}
		dir, err := os.MkdirTemp(e.dir, "api-")
		if err != nil {
			return nil, fmt.Errorf("creating api dir: %w", err)
		}
		t0 := time.Now()
		if h, err = startHarness(dir, workers, fsys); err != nil {
			return nil, err
		}
		for _, sp := range base {
			_, err := h.enroll(ctx, sp)
			p.op(err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	ioBefore := fsys.stats()

	root := tr.begin(0, "bench.run", "fleet_api")
	p.root = root.id
	fsys.parent.Store(root.id)
	h.d.Start(ctx)
	t0 := time.Now()
	results, retired := h.load(ctx, sched, t0, tr, root.id)
	wallS := time.Since(t0).Seconds()
	p.done(float64(h.d.Report().Counters[fleet.CounterEpochs]), wallS)
	root.end()

	t1 := time.Now()
	drainErr := h.d.Drain()
	closeErr := h.d.Close()
	drainMs := 1e3 * time.Since(t1).Seconds()
	p.op(drainErr)
	p.op(closeErr)

	lat := map[string][]float64{}
	var late int
	var lateMs, ckptBytes []float64
	for i, res := range results {
		q := sched[i]
		want := http.StatusOK
		if q.route == "enroll" {
			want = http.StatusCreated
		}
		switch {
		case res.err != nil:
			p.op(fmt.Errorf("%s %s: %w", q.method, q.path, res.err))
		case res.status != want:
			p.op(fmt.Errorf("%s %s: status %d, want %d", q.method, q.path, res.status, want))
		default:
			p.op(nil)
		}
		ms := 1e3 * res.latency.Seconds()
		p.latMs = append(p.latMs, ms)
		lat[q.route] = append(lat[q.route], ms)
		lateMs = append(lateMs, 1e3*res.late.Seconds())
		if res.late > lateLimit {
			late++
		}
		if q.route == "checkpoint" {
			ckptBytes = append(ckptBytes, float64(res.bytes))
		}
	}
	latePct := 100 * float64(late) / float64(max(1, len(results)))
	p.check(latePct <= maxLatePct, "%.2f%% of requests were sent more than %v late: the load fell behind its schedule", latePct, lateLimit)

	// Daemon.Reconcile counts only enrolled modules, so with
	// retirements its epoch check cannot hold; the event log stands in
	// for the retired modules instead.
	live := h.d.Registry().List()
	sums := sumModules(live)
	p.check(sums.reconcileErr == nil, "%v", sums.reconcileErr)
	failed, enrolledEpochs := 0, 0
	for _, m := range live {
		if m.Status() == fleet.StatusFailed {
			failed++
		}
		if strings.HasPrefix(m.ID(), "api-") {
			enrolledEpochs += m.Snapshot().Scheduler.Epochs
		}
	}
	// How far the modules the load enrolled got: new enrollments queue
	// behind modules that never finish.
	p.detail["api.enrolled_module_epochs"] = float64(enrolledEpochs)
	p.check(failed == 0, "%d modules failed", failed)
	an, err := h.analytics(ctx)
	p.op(err)
	if an != nil {
		logged := make(map[string]int, len(an.PerModule))
		for _, mr := range an.PerModule {
			logged[mr.Module] = mr.Epochs
		}
		short := 0
		for _, m := range live {
			if logged[m.ID()] != m.Snapshot().Scheduler.Epochs {
				short++
			}
		}
		p.check(short == 0 && an.Events == an.Epochs, "%d modules' logged epochs differ from their checkpoints; %d events over %d epochs", short, an.Events, an.Epochs)
		// A module retired during a quantum finishes, logs and
		// checkpoints that epoch, but the daemon no longer counts it.
		counted := int(h.d.Report().Counters[fleet.CounterEpochs])
		p.check(counted <= an.Epochs && an.Epochs <= counted+retired.count,
			"daemon counted %d epochs, the log holds %d, %d modules retired", counted, an.Epochs, retired.count)
	}
	ioAfter := fsys.stats()
	p.op(h.close())

	sums.add(retired.sums)
	sums.addLayerCounts(p)
	sums.addBusy(p)
	p.layer["fleet.worker_util"] = sums.passS / (float64(workers) * wallS)
	p.layer["fleetlog.appends"] = float64(ioAfter.appends - ioBefore.appends)
	p.layer["fleetlog.bytes_written"] = float64(ioAfter.appendBytes - ioBefore.appendBytes)
	p.layer["checkpoint.bytes_p50"] = quantile(ckptBytes, 0.5)
	p.layer["api.requests"] = float64(len(sched))
	p.layer["api.late_pct"] = latePct
	for route, xs := range lat {
		p.detail["api."+route+"_p50_ms"] = quantile(xs, 0.5)
		p.detail["api."+route+"_p99_ms"] = quantile(xs, 0.99)
	}
	p.detail["api.late_p99_ms"] = quantile(lateMs, 0.99)
	p.detail["fleet.workers"] = float64(workers)
	p.detail["fleet.drain_ms"] = drainMs
	p.detail["fleet.non_pass_s"] = float64(workers)*wallS - sums.passS
	return p, nil
}

// retiredModules is what the modules the load retired reported about
// themselves when their retirement returned.
type retiredModules struct {
	count int
	sums  fleetSums
}

// load sends the schedule from GOMAXPROCS goroutines, each holding one
// connection. A request is sent at its due time, or as soon as a
// connection frees up after it; latency counts from the due time, so a
// stall shows in every request it delays. It returns each request's
// result and the retired modules' accounts.
func (h *harness) load(ctx context.Context, sched []apiReq, t0 time.Time, tr *tracer, parent int64) ([]apiResult, retiredModules) {
	results := make([]apiResult, len(sched))
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		retired = retiredModules{sums: sumModules(nil)}
	)
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				q := sched[i]
				due := t0.Add(q.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				var m *fleet.Module
				if q.route == "retire" {
					m, _ = h.d.Registry().Get(q.module)
				}
				sent := time.Now()
				sp := tr.begin(parent, "api."+q.route, strconv.Itoa(i))
				status, body, err := h.do(ctx, q.method, q.path, q.body)
				sp.end()
				results[i] = apiResult{latency: time.Since(due), late: sent.Sub(due), status: status, bytes: len(body), err: err}
				if m != nil && status == http.StatusOK {
					s := sumModules([]*fleet.Module{m})
					mu.Lock()
					retired.count++
					retired.sums.add(s)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results, retired
}
