package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of untraced runs. Every workload reports
// every one of them; what an operation is differs per workload (see
// workload.op and README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// perLayer are the metrics of traced runs. Times are shares of the
// traced root span (they may exceed 100% where a layer runs on several
// workers at once); counts cover the first round of fixed work. A
// workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	{"bench.self_pct", "%", "lower"},
	{"dram.build_pct", "%", "lower"},
	{"core.detect_neighbors_pct", "%", "lower"},
	{"core.full_chip_pct", "%", "lower"},
	{"core.self_pct", "%", "lower"},
	{"memctl.write_sweep_pct", "%", "lower"},
	{"memctl.read_sweep_pct", "%", "lower"},
	{"memctl.wait_pct", "%", "lower"},
	{"memctl.shard_util", "ratio", "higher"},
	{"fleet.sweep_pct", "%", "lower"},
	{"fleet.drain_pct", "%", "lower"},
	{"fleet.worker_util", "ratio", "higher"},
	{"fleetlog.write_pct", "%", "lower"},
	{"fleetlog.sync_pct", "%", "lower"},
	{"fleetlog.read_pct", "%", "lower"},
	{"fleetlog.observe_pct", "%", "lower"},
	{"fleetlog.finish_pct", "%", "lower"},
	{"fleetlog.spill_io_pct", "%", "lower"},
	{"checkpoint.marshal_pct", "%", "lower"},
	{"api.status_pct", "%", "lower"},
	{"api.checkpoint_pct", "%", "lower"},
	{"api.list_pct", "%", "lower"},
	{"api.rollup_pct", "%", "lower"},
	{"api.enroll_pct", "%", "lower"},
	{"api.retire_pct", "%", "lower"},
	{"api.analytics_pct", "%", "lower"},
	{"api.late_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"dram.reads", "count", "lower"},
	{"dram.writes", "count", "lower"},
	{"dram.activates", "count", "lower"},
	{"dram.refreshes", "count", "lower"},
	{"memctl.passes", "count", "lower"},
	{"memctl.rows_tested", "count", "lower"},
	{"core.discovery_tests", "count", "lower"},
	{"core.recursion_tests", "count", "lower"},
	{"core.fullchip_tests", "count", "lower"},
	{"onlinetest.epochs", "count", "higher"},
	{"onlinetest.failures", "count", "higher"},
	{"fleetlog.appends", "count", "lower"},
	{"fleetlog.bytes_written", "B", "lower"},
	{"fleetlog.spill_runs", "count", "lower"},
	{"fleetlog.spill_bytes", "B", "lower"},
	{"checkpoint.bytes_p50", "B", "lower"},
	{"api.requests", "count", "higher"},
}

// layerShares maps each share metric to the span names whose time it
// sums: self time for names listed in self, whole span time for names
// in incl. Time measured outside spans (phase.busy) is added by name.
var layerShares = []struct {
	metric     string
	self, incl []string
}{
	{"bench.self_pct", []string{"bench.run", "bench.module", "bench.batch"}, nil},
	{"dram.build_pct", []string{"dram.build"}, nil},
	{"core.detect_neighbors_pct", nil, []string{"core.detect_neighbors"}},
	{"core.full_chip_pct", nil, []string{"core.full_chip"}},
	{"core.self_pct", []string{"core.detect_neighbors", "core.full_chip"}, nil},
	{"memctl.write_sweep_pct", []string{"memctl.write_sweep"}, nil},
	{"memctl.read_sweep_pct", []string{"memctl.read_sweep"}, nil},
	{"memctl.wait_pct", []string{"memctl.pass"}, nil},
	{"fleet.sweep_pct", nil, []string{"fleet.sweep"}},
	{"fleet.drain_pct", nil, []string{"fleet.drain"}},
	{"fleetlog.write_pct", []string{"fleetlog.write"}, nil},
	{"fleetlog.sync_pct", []string{"fleetlog.sync"}, nil},
	{"fleetlog.read_pct", []string{"fleetlog.read"}, nil},
	{"fleetlog.observe_pct", []string{"fleetlog.observe"}, nil},
	{"fleetlog.finish_pct", []string{"fleetlog.finish"}, nil},
	{"fleetlog.spill_io_pct", []string{"fleetlog.spill_write", "fleetlog.spill_read"}, nil},
	{"checkpoint.marshal_pct", []string{"checkpoint.marshal"}, nil},
	{"api.status_pct", nil, []string{"api.status"}},
	{"api.checkpoint_pct", nil, []string{"api.checkpoint"}},
	{"api.list_pct", nil, []string{"api.list"}},
	{"api.rollup_pct", nil, []string{"api.rollup"}},
	{"api.enroll_pct", nil, []string{"api.enroll"}},
	{"api.retire_pct", nil, []string{"api.retire"}},
	{"api.analytics_pct", nil, []string{"api.analytics"}},
}

// layerMetrics assembles every per-layer metric of a traced phase.
func layerMetrics(p *phase, lt layerTimes) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = p.layer[d.Name]
	}
	if lt.root <= 0 {
		return out
	}
	for _, s := range layerShares {
		var sec float64
		for _, n := range s.self {
			sec += lt.self[n]
		}
		for _, n := range s.incl {
			sec += lt.incl[n]
		}
		sec += p.busy[s.metric]
		out[s.metric] = 100 * sec / lt.root
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile with
// the "exclusive" method of Python's statistics.quantiles(n=4), so that
// spreads computed here agree with ones computed from the same values
// there.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
