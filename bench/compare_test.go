package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var parentRuns = []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	mostlyBetter := scaled(parentRuns, 1.05)
	mostlyBetter[3], mostlyBetter[7] = 90, 90
	// A parent whose spread is far wider than any bound, and a change
	// whose every run beats every parent run by less than that spread.
	wide := []float64{1, 2, 3, 97, 98, 99, 99, 99, 99, 99}
	above := []float64{100, 100.1, 100.2, 100.3, 100.4, 100.5, 100.6, 100.7, 100.8, 100.9}
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"every pair 10% better", parentRuns, scaled(parentRuns, 1.10), "higher", 0.1, verdictImproved},
		{"lower is better", parentRuns, scaled(parentRuns, 0.90), "lower", 0.1, verdictImproved},
		{"identical", parentRuns, parentRuns, "higher", 0.1, verdictUnchanged},
		{"8 of 10 pairs better is no gain", parentRuns, mostlyBetter, "higher", 0.1, verdictUnchanged},
		{"gap inside the parent's spread is no gain", parentRuns, scaled(parentRuns, 1.005), "higher", 0.1, verdictUnchanged},
		{"20% worse", parentRuns, scaled(parentRuns, 0.8), "higher", 0.1, verdictRegressed},
		{"worse within the bound", parentRuns, scaled(parentRuns, 0.95), "higher", 0.1, verdictUnchanged},
		{"slower is worse when lower is better", parentRuns, scaled(parentRuns, 1.2), "lower", 0.1, verdictRegressed},
		{"spread over the bound", wide, scaled(wide, 0.7), "higher", 0.1, verdictUnresolved},
		{"spread over the bound, every run better", wide, above, "higher", 0.1, verdictNotWorse},
	}
	for _, tc := range cases {
		if got := judge(tc.parent, tc.change, tc.better, tc.bound); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d/%d, gain %.3f), want %q", tc.name, got.Verdict, got.Wins, got.Pairs, got.Gain, tc.want)
		}
	}
}

// records builds n paired runs of one workload, alternating which side
// starts first, with ops_per_s values from the given slices.
func records(n int, parentOps, changeOps []float64, changeSim string) (parent, change []*record) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		ps, cs := t0.Add(time.Duration(2*i)*time.Minute), t0.Add(time.Duration(2*i+1)*time.Minute)
		if i%2 == 1 {
			ps, cs = cs, ps
		}
		mk := func(start time.Time, ops float64, sim string) *record {
			return &record{
				Schema: recordSchema, Workload: "detect", Seed: uint64(i + 1), Started: start,
				Metrics: map[string]metricValue{"ops_per_s": {Value: ops, Unit: "1/s"}},
				Sim:     map[string]json.RawMessage{"m000": json.RawMessage(`{"checksum":"` + sim + `"}`)},
			}
		}
		parent = append(parent, mk(ps, parentOps[i], "aa"))
		change = append(change, mk(cs, changeOps[i], changeSim))
	}
	return parent, change
}

func TestCompareRecords(t *testing.T) {
	spec := &benchSpec{EndToEnd: []boundedMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}

	parent, change := records(10, parentRuns, scaled(parentRuns, 1.2), "aa")
	reps := compareRecords(parent, change, spec, 10)
	if len(reps) != 1 || !reps[0].ok() || reps[0].Rows[0].Verdict != verdictImproved {
		t.Fatalf("clean gain: %+v", reps[0])
	}
	var out strings.Builder
	printComparison(&out, reps)
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), "identical") {
		t.Errorf("report does not show the gain:\n%s", out.String())
	}

	parent, change = records(10, parentRuns, parentRuns, "bb")
	if r := compareRecords(parent, change, spec, 10)[0]; r.ok() || len(r.SimDiffers) != 10 {
		t.Errorf("a changed fingerprint must fail the comparison: %+v", r)
	}

	parent, change = records(9, parentRuns, parentRuns, "aa")
	if r := compareRecords(parent, change, spec, 10)[0]; r.ok() {
		t.Errorf("9 pairs must not be enough: %+v", r)
	}

	parent, change = records(10, parentRuns, parentRuns, "aa")
	for i, c := range change {
		c.Started = parent[i].Started.Add(time.Second)
	}
	if r := compareRecords(parent, change, spec, 10)[0]; r.ok() {
		t.Errorf("pairs that never alternate must fail: %+v", r)
	}

	parent, change = records(10, parentRuns, scaled(parentRuns, 0.8), "aa")
	if r := compareRecords(parent, change, spec, 10)[0]; r.ok() {
		t.Errorf("a regression must fail the comparison: %+v", r)
	}
}
