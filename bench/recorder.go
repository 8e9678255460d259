package main

import (
	"sync"
	"sync/atomic"

	"parbor/internal/memctl"
	"parbor/internal/obs"
)

// hostRecorder is the obs.Recorder the detect workload hands to one
// module's dram.ModuleConfig and memctl.HostConfig. It keeps the DRAM
// command totals and host counters for the sim fingerprint, sums the
// host's timing series, and, in a traced run, turns every pass the host
// times into a memctl.pass span with its write and read sweeps as
// children, under the core span that issued it.
type hostRecorder struct {
	cmds    [4]atomic.Uint64 // indexed by obs.Cmd
	shardNs atomic.Int64     // sum of memctl.SeriesChipShard

	tr  *tracer
	req string

	mu       sync.Mutex
	counters map[string]uint64 //parbor:guardedby mu
	sumNs    map[string]int64  //parbor:guardedby mu — per timing series
	passNs   []int64           //parbor:guardedby mu — every pass duration
	parent   int64             //parbor:guardedby mu — span the next pass belongs to
	sweeps   []span            //parbor:guardedby mu — sweeps of the pass in flight
}

var _ obs.Recorder = (*hostRecorder)(nil)

func newHostRecorder(tr *tracer, req string) *hostRecorder {
	return &hostRecorder{tr: tr, req: req, counters: map[string]uint64{}, sumNs: map[string]int64{}}
}

// Command implements obs.Recorder.
func (r *hostRecorder) Command(c obs.Cmd, n uint64) {
	if int(c) < len(r.cmds) {
		r.cmds[c].Add(n)
	}
}

// Add implements obs.Recorder.
func (r *hostRecorder) Add(name string, n uint64) {
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// ObserveNs implements obs.Recorder. The host reports a pass's write
// and read sweeps before the pass itself, all from the goroutine that
// issued the pass, so the sweeps seen since the last pass are the
// children of the next one.
func (r *hostRecorder) ObserveNs(name string, ns int64) {
	if name == memctl.SeriesChipShard {
		// Recorded from the per-chip workers; only the sum is used.
		r.shardNs.Add(ns)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sumNs[name] += ns
	if name == memctl.SeriesPass {
		r.passNs = append(r.passNs, ns)
	}
	if r.tr == nil {
		return
	}
	end := r.tr.now()
	switch name {
	case memctl.SeriesWriteSweep:
		r.sweeps = append(r.sweeps, span{Name: "memctl.write_sweep", Start: end - ns, End: end})
	case memctl.SeriesReadSweep:
		r.sweeps = append(r.sweeps, span{Name: "memctl.read_sweep", Start: end - ns, End: end})
	case memctl.SeriesPass:
		id := r.tr.add(r.parent, "memctl.pass", r.req, end-ns, end)
		for _, s := range r.sweeps {
			r.tr.add(id, s.Name, r.req, s.Start, s.End)
		}
		r.sweeps = r.sweeps[:0]
	}
}

// setParent names the span the following passes belong to.
func (r *hostRecorder) setParent(id int64) {
	r.mu.Lock()
	r.parent = id
	r.mu.Unlock()
}

// command returns one DRAM command total.
func (r *hostRecorder) command(c obs.Cmd) uint64 { return r.cmds[c].Load() }

// counter returns one host counter.
func (r *hostRecorder) counter(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// passSamplesUs returns every pass duration, in microseconds.
func (r *hostRecorder) passSamplesUs() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.passNs))
	for i, ns := range r.passNs {
		out[i] = float64(ns) / 1e3
	}
	return out
}

// seriesSeconds returns the summed duration of one timing series.
func (r *hostRecorder) seriesSeconds(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.sumNs[name]) / 1e9
}
