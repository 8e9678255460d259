package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// boundedMetric is an end-to-end metric as BENCHMARK.json defines it.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every result record (*.json) in dir.
func loadRecords(dir string) ([]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result records (*.json) in %s", dir)
	}
	var out []*record
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
		}
		out = append(out, &r)
	}
	return out, nil
}

// Verdicts, following the choosing-metrics guide: a gain needs nine
// tenths of the pairs and a median gap wider than the parent's
// quartile spread; a metric whose spread exceeds its bound is
// unresolved unless every run of the change beats every run of the
// parent; otherwise a median worse by more than the bound is a
// regression.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictNotWorse   = "not worse"
)

// minPairs is how many parent/change pairs a workload needs.
const minPairs = 10

// metricRow is the comparison of one metric on one workload.
type metricRow struct {
	Metric  string
	Unit    string
	Pairs   int
	Parent  [3]float64 // first quartile, median, third quartile
	Change  [3]float64
	Wins    int
	Gain    float64 // relative change of the median; positive is better
	Verdict string
}

// judge compares paired values of one metric. parent[i] and change[i]
// are the i-th pair.
func judge(parent, change []float64, better string, bound float64) metricRow {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	r := metricRow{Pairs: len(parent)}
	r.Parent[0], r.Parent[1], r.Parent[2] = quartiles(parent)
	r.Change[0], r.Change[1], r.Change[2] = quartiles(change)
	for i := range parent {
		if sign*(change[i]-parent[i]) > 0 {
			r.Wins++
		}
	}
	gap := sign * (r.Change[1] - r.Parent[1])
	if r.Parent[1] != 0 {
		r.Gain = gap / math.Abs(r.Parent[1])
	}
	spread := max(relSpread(r.Parent), relSpread(r.Change))
	allBetter := len(parent) > 0
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case 10*r.Wins >= 9*r.Pairs && r.Pairs > 0 && gap > r.Parent[2]-r.Parent[0]:
		r.Verdict = verdictImproved
	case spread > bound && allBetter:
		r.Verdict = verdictNotWorse
	case spread > bound:
		r.Verdict = verdictUnresolved
	case -r.Gain > bound:
		r.Verdict = verdictRegressed
	default:
		r.Verdict = verdictUnchanged
	}
	return r
}

func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// workloadReport is the comparison of one workload.
type workloadReport struct {
	Workload    string
	Pairs       int
	ParentFirst int
	SimSeeds    int      // seeds whose fingerprints were compared
	SimDiffers  []string // "seed N: key" for every differing fingerprint
	Rows        []metricRow
	Problems    []string
}

func (w *workloadReport) verdicts(v string) []string {
	var out []string
	for _, r := range w.Rows {
		if r.Verdict == v {
			out = append(out, r.Metric)
		}
	}
	return out
}

func (w *workloadReport) ok() bool {
	return len(w.Problems) == 0 && len(w.SimDiffers) == 0 && len(w.verdicts(verdictRegressed)) == 0
}

// compareRecords pairs the parent's and the change's untraced runs of
// each workload by seed (in start order within a seed), judges every
// bounded metric, and compares the sim fingerprints of every two runs
// with the same seed.
func compareRecords(parent, change []*record, spec *benchSpec, needPairs int) []*workloadReport {
	type key struct {
		workload string
		seed     uint64
	}
	group := func(rs []*record) map[key][]*record {
		m := map[key][]*record{}
		for _, r := range rs {
			k := key{r.Workload, r.Seed}
			m[k] = append(m[k], r)
		}
		for _, g := range m {
			sort.Slice(g, func(i, j int) bool { return g[i].Started.Before(g[j].Started) })
		}
		return m
	}
	pg, cg := group(parent), group(change)
	names := map[string]bool{}
	for k := range pg {
		names[k.workload] = true
	}
	for k := range cg {
		names[k.workload] = true
	}
	var out []*workloadReport
	for _, name := range sortedKeys(names) {
		w := &workloadReport{Workload: name}
		var pairs [][2]*record
		var seeds []uint64
		for k := range pg {
			if k.workload == name {
				seeds = append(seeds, k.seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, seed := range seeds {
			k := key{name, seed}
			ps, cs := pg[k], cg[k]
			if len(cs) > 0 {
				w.SimSeeds++
			}
			for _, p := range ps {
				for _, c := range cs {
					common, differ := simDiff(p.Sim, c.Sim)
					if common == 0 {
						differ = []string{"(no common units)"}
					}
					for _, d := range differ {
						w.SimDiffers = append(w.SimDiffers, fmt.Sprintf("seed %d: %s", seed, d))
					}
				}
			}
			pu, cu := untraced(ps), untraced(cs)
			for i := 0; i < len(pu) && i < len(cu); i++ {
				pairs = append(pairs, [2]*record{pu[i], cu[i]})
				if pu[i].Started.Before(cu[i].Started) {
					w.ParentFirst++
				}
			}
		}
		w.Pairs = len(pairs)
		if w.Pairs < needPairs {
			w.Problems = append(w.Problems, fmt.Sprintf("%d pairs, need %d", w.Pairs, needPairs))
		}
		if d := w.ParentFirst - (w.Pairs - w.ParentFirst); d > 1 || d < -1 {
			w.Problems = append(w.Problems, fmt.Sprintf("pairs do not alternate: the parent ran first in %d of %d", w.ParentFirst, w.Pairs))
		}
		for _, m := range spec.EndToEnd {
			var a, b []float64
			for _, pr := range pairs {
				av, aok := pr[0].Metrics[m.Name]
				bv, bok := pr[1].Metrics[m.Name]
				if aok && bok {
					a, b = append(a, av.Value), append(b, bv.Value)
				}
			}
			if len(a) == 0 {
				continue
			}
			r := judge(a, b, m.Better, m.Bound)
			r.Metric, r.Unit = m.Name, m.Unit
			w.Rows = append(w.Rows, r)
		}
		out = append(out, w)
	}
	return out
}

func untraced(rs []*record) []*record {
	var out []*record
	for _, r := range rs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printComparison(w io.Writer, reps []*workloadReport) {
	for _, r := range reps {
		fmt.Fprintf(w, "%s: %d pairs (parent first in %d); sim compared on %d seeds", r.Workload, r.Pairs, r.ParentFirst, r.SimSeeds)
		if len(r.SimDiffers) == 0 {
			fmt.Fprintln(w, ", identical")
		} else {
			fmt.Fprintf(w, ", DIFFERENT: %s\n", strings.Join(r.SimDiffers, "; "))
		}
		fmt.Fprintf(w, "  %-16s %-36s %-36s %6s %8s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "gain", "verdict")
		for _, m := range r.Rows {
			fmt.Fprintf(w, "  %-16s %-36s %-36s %6s %+7.2f%%  %s\n", m.Metric,
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", m.Parent[1], m.Parent[0], m.Parent[2], m.Unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", m.Change[1], m.Change[0], m.Change[2], m.Unit),
				fmt.Sprintf("%d/%d", m.Wins, m.Pairs), 100*m.Gain, m.Verdict)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  PROBLEM: %s\n", p)
		}
	}
	fmt.Fprintf(w, "\n%-12s %5s %-9s %-28s %-28s %-28s %s\n", "workload", "pairs", "sim", "improved", "regressed", "unresolved", "result")
	for _, r := range reps {
		sim := "identical"
		if len(r.SimDiffers) > 0 {
			sim = "differs"
		}
		result := "ok"
		if !r.ok() {
			result = "FAIL"
		}
		fmt.Fprintf(w, "%-12s %5d %-9s %-28s %-28s %-28s %s\n", r.Workload, r.Pairs, sim,
			list(r.verdicts(verdictImproved)), list(r.verdicts(verdictRegressed)), list(r.verdicts(verdictUnresolved)), result)
	}
}

func list(xs []string) string {
	if len(xs) == 0 {
		return "-"
	}
	return strings.Join(xs, ",")
}

func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: parborbench compare [--spec BENCHMARK.json] <parent-results-dir> <change-results-dir>")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	reps := compareRecords(parent, change, spec, minPairs)
	printComparison(stdout, reps)
	for _, r := range reps {
		if !r.ok() {
			return errors.New("comparison failed")
		}
	}
	return nil
}
