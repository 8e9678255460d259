package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSizes shrink every workload so that the whole suite runs in
// seconds; they keep 8K-bit rows, which Table 1's test counts need.
var smokeSizes = sizes{
	Detect:    detectSizes{Modules: 3, Chips: 8, Rows: 64, Cols: 8192},
	Sweep:     sweepSizes{Modules: 6, Rows: 8, MaxEpochs: 16},
	API:       apiSizes{Modules: 8, Rows: 8, Rate: 200, EnrollEpochs: 4, Setups: 2},
	Analytics: analyticsSizes{Modules: 50, Epochs: 20, WeakCells: 6, Setups: 2},
}

func smokeRun(t *testing.T, workload string, trace bool) (*record, options) {
	t.Helper()
	dir := t.TempDir()
	o := options{
		workload: workload,
		seed:     7,
		seconds:  0.3,
		trace:    trace,
		spans:    filepath.Join(dir, "spans.json"),
		workdir:  filepath.Join(dir, "work"),
		sizes:    smokeSizes,
	}
	rec, err := execute(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	return rec, o
}

// TestWorkloads runs every workload untraced and traced at smoke size:
// the result line has the contract's shape, every end-to-end metric is
// present and nonzero, every per-layer metric is present, the spans are
// written, and tracing leaves the sim fingerprint unchanged.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, o := smokeRun(t, w.name, false)
			checkResultLine(t, plain, o, endToEnd)
			for _, d := range endToEnd {
				m := plain.Metrics[d.Name]
				if m.Value <= 0 || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, m.Value)
				}
			}

			traced, o := smokeRun(t, w.name, true)
			checkResultLine(t, traced, o, perLayer)
			common, differ := simDiff(plain.Sim, traced.Sim)
			if common == 0 || len(differ) > 0 {
				t.Errorf("sim of untraced and traced runs: %d common keys, differing %v", common, differ)
			}
			data, err := os.ReadFile(o.spans)
			if err != nil {
				t.Fatalf("spans: %v", err)
			}
			var doc struct {
				Root  int64  `json:"root"`
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("spans: %v", err)
			}
			if doc.Root == 0 || len(doc.Spans) < 2 {
				t.Errorf("spans file has root %d and %d spans", doc.Root, len(doc.Spans))
			}
		})
	}
}

// checkResultLine prints the record and checks the last line: exactly
// the four contract keys, and exactly the wanted metrics with units.
func checkResultLine(t *testing.T, rec *record, o options, want []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, rec, o); err != nil {
		t.Fatalf("printResult: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &raw); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("last line has %d keys, want 4", len(raw))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with bounds the contract
// allows and setup_s holding the largest.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []metricDef     `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, w, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, perLayer[i])
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.add(0, "bench.run", "", 0, 100)
	a := tr.add(root, "a", "", 10, 50)
	tr.add(a, "b", "", 20, 30)
	tr.add(a, "b", "", 25, 40) // overlaps its sibling: the union counts once
	tr.add(root, "c", "", 60, 90)
	checkSelf := func(lt layerTimes, want map[string]float64) {
		t.Helper()
		for name, w := range want {
			if got := lt.self[name]; math.Abs(got-w) > 1e-15 {
				t.Errorf("self[%s] = %v, want %v", name, got, w)
			}
		}
	}
	lt := tr.layers(root)
	checkSelf(lt, map[string]float64{"bench.run": 30e-9, "a": 20e-9, "b": 25e-9, "c": 30e-9})
	if lt.root != 100e-9 {
		t.Errorf("root = %v", lt.root)
	}

	// split moves children into the phase their start falls in.
	tr.split(a, 28, "before", "after")
	checkSelf(tr.layers(root), map[string]float64{"a": 0, "before": 10e-9, "after": 22e-9, "b": 25e-9})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
