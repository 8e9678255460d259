// Command parborbench is the repository's end-to-end benchmark, with a
// per-layer breakdown from traced runs. It drives the system only
// through public entry points: core.Tester for detection, fleet.Daemon
// and its HTTP handler for the fleet daemon, the obs.Recorder interface
// and the faultfs.FS seam for accounting, and fleetlog for the event
// log.
//
// Usage, from the repository root (bench.sh builds the binary first):
//
//	bash bench/bench.sh run --workload detect --seed 1 --seconds 10 --trace 0 [--out result.json]
//	bash bench/bench.sh compare <parent-results-dir> <change-results-dir>
//
// A run builds its inputs from --seed, measures for --seconds, checks
// the outputs, and prints as its last line one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 1 it runs
// the workload twice, untraced then traced, reports the per-layer
// metrics of the traced run, and writes its spans to --spans.
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: parborbench run|compare [flags]")
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(ctx, os.Args[2:], os.Stdout)
	case "compare":
		err = compareCmd(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q (want run or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "parborbench:", err)
		os.Exit(1)
	}
}

// workload is one input set the benchmark runs.
type workload struct {
	name string
	// op names what ops_per_s counts and what the latency metrics time.
	op  string
	run func(ctx context.Context, e *env, tr *tracer) (*phase, error)
}

var workloads = []workload{
	{"detect", "ops = modules tested; latency = an A/B/C round's mean module run", runDetect},
	{"fleet_sweep", "ops = module-epochs; latency = one batch sweep", runSweep},
	{"fleet_api", "ops = module-epochs swept under API load; latency = one API request from its due time", runAPI},
	{"analytics", "ops = log events classified; latency = one GET /v1/analytics", runAnalytics},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// sizes are the workloads' input sizes. defaultSizes is what the
// benchmark runs; the tests shrink them.
type sizes struct {
	Detect    detectSizes    `json:"detect"`
	Sweep     sweepSizes     `json:"fleet_sweep"`
	API       apiSizes       `json:"fleet_api"`
	Analytics analyticsSizes `json:"analytics"`
}

var defaultSizes = sizes{
	Detect:    detectSizes{Modules: 24, Chips: 8, Rows: 1024, Cols: 8192},
	Sweep:     sweepSizes{Modules: 64, Rows: 32, MaxEpochs: 64},
	API:       apiSizes{Modules: 128, Rows: 32, Rate: 200, EnrollEpochs: 32, Setups: 3},
	Analytics: analyticsSizes{Modules: 2000, Epochs: 250, WeakCells: 10, Setups: 3},
}

// env is what a workload receives.
type env struct {
	seed    uint64
	seconds time.Duration
	sizes   sizes
	// dir is scratch space for the run; workloads make their own
	// subdirectories and remove them.
	dir string
}

// phase is one measured pass of a workload.
type phase struct {
	setupS []float64 // each set-up repetition, seconds
	rates  []float64 // work units per second of each measured piece of work
	latMs  []float64 // per-operation latencies

	attempted, failed int
	failures          []string

	// sim fingerprints the simulated results, keyed by unit of work
	// (module, batch, query): for a given seed every key a run
	// produces maps to the same bytes, whatever the machine's speed.
	sim map[string]json.RawMessage

	root  int64              // root span of a traced phase
	layer map[string]float64 // per-layer metrics the workload measures directly
	// busy is layer time measured outside spans, in seconds, keyed by
	// the share metric it adds to.
	busy map[string]float64
	// detail holds further numbers kept in the result record.
	detail map[string]float64
	// serial marks workloads whose spans never overlap a sibling, so
	// the self times of the traced tree must add up to its root.
	serial bool
}

func newPhase() *phase {
	return &phase{
		sim:    map[string]json.RawMessage{},
		layer:  map[string]float64{},
		busy:   map[string]float64{},
		detail: map[string]float64{},
	}
}

// maxFailureNotes bounds how many failure descriptions a record keeps.
const maxFailureNotes = 20

// op counts one attempted operation, failed when err is non-nil.
func (p *phase) op(err error) {
	p.attempted++
	if err != nil {
		p.fail(err.Error())
	}
}

// check counts one correctness check.
func (p *phase) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(fmt.Sprintf(format, args...))
	}
}

func (p *phase) fail(note string) {
	p.failed++
	if len(p.failures) < maxFailureNotes {
		p.failures = append(p.failures, note)
	}
}

// fingerprint stores the sim of one unit of work or, when the run has
// already done that unit, checks that it reproduced it.
func (p *phase) fingerprint(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding sim %s: %w", key, err)
	}
	if prev, ok := p.sim[key]; ok {
		p.check(jsonEqual(prev, data), "%s did not reproduce its first fingerprint", key)
		return nil
	}
	p.sim[key] = data
	return nil
}

// done records one measured piece of work: ops units in seconds.
func (p *phase) done(ops, seconds float64) {
	if seconds > 0 {
		p.rates = append(p.rates, ops/seconds)
	}
}

// opsPerS is the median rate over the pieces of work, which a burst of
// load from outside the process moves less than a total would.
func (p *phase) opsPerS() float64 { return quantile(p.rates, 0.5) }

// simDiff compares two sim blocks on the keys both hold. It returns how
// many keys they share and the keys whose fingerprints differ.
func simDiff(a, b map[string]json.RawMessage) (common int, differ []string) {
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			continue
		}
		common++
		if !jsonEqual(va, vb) {
			differ = append(differ, k)
		}
	}
	sort.Strings(differ)
	return common, differ
}

// jsonEqual compares two encodings of one value, ignoring whitespace:
// a record written with indentation still matches a fresh encoding.
func jsonEqual(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run measured, as --out writes it and
// compare reads it.
type record struct {
	Schema    string                     `json:"schema"`
	Workload  string                     `json:"workload"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Started   time.Time                  `json:"started"`
	Machine   machine                    `json:"machine"`
	Sizes     any                        `json:"sizes"`
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Failures  []string                   `json:"failures,omitempty"`
	Metrics   map[string]metricValue     `json:"metrics"`
	Detail    map[string]float64         `json:"detail,omitempty"`
	Sim       map[string]json.RawMessage `json:"sim"`
}

const recordSchema = "parborbench/result/v1"

// machine describes where a run happened.
type machine struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+modified"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// options are the run command's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	workdir  string
	sizes    sizes
}

func runCmd(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: detect, fleet_sweep, fleet_api or analytics")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and then traced, and reports per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.json)")
	out := fs.String("out", "", "also write the full result record, with the sim fingerprint, to this file")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for logs and spill files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		spans:    *spans,
		workdir:  *workdir,
		sizes:    defaultSizes,
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	rec, err := execute(ctx, o)
	if err != nil {
		return err
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding record: %w", err)
		}
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return fmt.Errorf("writing record: %w", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing record: %w", err)
		}
	}
	return printResult(stdout, rec, o)
}

// execute runs one workload as the options ask and assembles its
// record.
func execute(ctx context.Context, o options) (*record, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	//parbor:droperr scratch directory; nothing in it outlives the run
	defer os.RemoveAll(dir)
	e := &env{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), sizes: o.sizes, dir: dir}
	rec := &record{
		Schema:   recordSchema,
		Workload: w.name,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		Started:  time.Now().UTC(),
		Machine:  thisMachine(),
		Sizes:    workloadSizes(w.name, o.sizes),
		Metrics:  map[string]metricValue{},
	}

	base, err := w.run(ctx, e, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	phases := []*phase{base}
	rec.Detail = base.detail
	rec.Sim = base.sim
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		lat := base.latMs
		vals := map[string]float64{
			"setup_s":        quantile(base.setupS, 0.5),
			"peak_rss_mb":    rss,
			"ops_per_s":      base.opsPerS(),
			"latency_p50_ms": quantile(lat, 0.5),
			"latency_p90_ms": quantile(lat, 0.90),
		}
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
		rec.Detail["latency_samples"] = float64(len(lat))
		rec.Detail["setup_samples"] = float64(len(base.setupS))
	} else {
		tr := newTracer()
		traced, err := w.run(ctx, e, tr)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		phases = append(phases, traced)
		lt := tr.layers(traced.root)
		vals := layerMetrics(traced, lt)
		if t := traced.opsPerS(); t > 0 {
			vals["trace.overhead_pct"] = 100 * (base.opsPerS()/t - 1)
		}
		for _, d := range perLayer {
			rec.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
		rec.Detail = traced.detail
		rec.Detail["trace.root_s"] = lt.root
		rec.Detail["trace.self_sum_s"] = lt.selfSum
		if traced.serial {
			gap := math.Abs(lt.selfSum-lt.root) / lt.root
			traced.check(gap <= 0.02, "per-layer self times sum to %.4fs, root span is %.4fs", lt.selfSum, lt.root)
		}
		common, differ := simDiff(base.sim, traced.sim)
		traced.check(common > 0 && len(differ) == 0, "traced and untraced sim differ: %d common keys, differing %v", common, differ)
		if err := tr.write(o.spans, w.name, o.seed, traced.root); err != nil {
			return nil, err
		}
	}
	for _, p := range phases {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Failures = append(rec.Failures, p.failures...)
	}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

func workloadSizes(name string, s sizes) any {
	switch name {
	case "detect":
		return s.Detect
	case "fleet_sweep":
		return s.Sweep
	case "fleet_api":
		return s.API
	default:
		return s.Analytics
	}
}

// printResult writes the human-readable summary and, last, the result
// line.
func printResult(w io.Writer, rec *record, o options) error {
	wl, err := lookupWorkload(rec.Workload)
	if err != nil {
		return err
	}
	mode := "untraced"
	if rec.Trace {
		mode = "traced, spans in " + o.spans
	}
	fmt.Fprintf(w, "parborbench %s seed=%d seconds=%g (%s)\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	fmt.Fprintf(w, "  %s %s/%s, %d CPUs, GOMAXPROCS=%d, commit %s\n",
		rec.Machine.GoVersion, rec.Machine.OS, rec.Machine.Arch, rec.Machine.CPUs, rec.Machine.GOMAXPROCS, rec.Machine.Commit)
	fmt.Fprintf(w, "  %s\n", wl.op)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		if rec.Trace && m.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rec.Detail))
	for k := range rec.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  detail %-28s %14.6g\n", k, rec.Detail[k])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	data, err := json.Marshal(resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// mix derives an independent 64-bit value from a seed and a salt
// (splitmix64), so every generated input has its own stream.
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
