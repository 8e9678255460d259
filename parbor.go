// Package parbor is a library reproduction of "PARBOR: An Efficient
// System-Level Technique to Detect Data-Dependent Failures in DRAM"
// (Khan, Lee, Mutlu; DSN 2016).
//
// It bundles three things:
//
//   - A DRAM device simulator with vendor-style internal address
//     scrambling, coupling-based data-dependent failures, and the
//     random-failure modes of real chips — the stand-in for the
//     paper's FPGA-plus-144-chips test infrastructure.
//   - The PARBOR detection algorithm itself: parallel recursive
//     neighbor-location testing plus neighbor-aware full-chip
//     testing, running strictly on the memory-controller interface.
//   - The DC-REF refresh study: a command-level DDR3 system
//     simulator comparing content-based refresh against RAIDR and
//     the uniform baseline on synthetic SPEC-like workloads.
//
// Quickstart:
//
//	mod, _ := parbor.NewModule(parbor.ModuleConfig{
//		Name:   "A1",
//		Vendor: parbor.VendorA,
//		Seed:   42,
//	})
//	host, _ := parbor.NewHost(mod, 0)
//	tester, _ := parbor.NewTester(host, parbor.DetectConfig{})
//	report, _ := tester.Run(context.Background())
//	fmt.Println(report.Neighbor.Distances) // [-48 -16 -8 8 16 48]
//
// The subsystems are implemented in internal packages; this package
// re-exports the stable surface.
package parbor

import (
	"parbor/internal/chaos"
	"parbor/internal/checkpoint"
	"parbor/internal/core"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/march"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/onlinetest"
	"parbor/internal/patterns"
	"parbor/internal/refresh"
	"parbor/internal/repair"
	"parbor/internal/retention"
	"parbor/internal/scramble"
	"parbor/internal/sim"
	"parbor/internal/testtime"
	"parbor/internal/trace"
)

// Vendor identifies a DRAM-internal address-scrambling profile.
type Vendor = scramble.Vendor

// The vendor profiles: A, B, C model the paper's three anonymized
// manufacturers; Linear is an unscrambled mapping; Toy is the 16-bit
// worked example of the paper's Figures 5-9.
const (
	VendorLinear = scramble.VendorLinear
	VendorA      = scramble.VendorA
	VendorB      = scramble.VendorB
	VendorC      = scramble.VendorC
	VendorToy    = scramble.VendorToy
)

// Vendors lists the three real-chip profiles.
func Vendors() []Vendor { return scramble.Vendors() }

// Mapping is a ground-truth system-to-physical address mapping
// (exposed for validation and experimentation; the detection
// algorithm never consults it).
type Mapping = scramble.Mapping

// NewMapping returns the mapping of a vendor profile.
func NewMapping(v Vendor) (*Mapping, error) { return scramble.New(v) }

// InferMapping builds one plausible physical layout consistent with a
// detected neighbor-distance set — the inverse of what detection
// measures. Useful for predicting interference tails on a chip whose
// mapping was just learned.
func InferMapping(distances []int, chunkBits int) (*Mapping, error) {
	return scramble.Infer(distances, chunkBits)
}

// MappingFromSegments builds a custom Mapping from explicit
// chunk-local physical segments, for modeling chips beyond the three
// paper vendors.
func MappingFromSegments(chunkBits int, segments [][]int) (*Mapping, error) {
	return scramble.FromSegments(VendorLinear, chunkBits, segments)
}

// Geometry describes a chip's addressable layout.
type Geometry = dram.Geometry

// CouplingConfig parameterizes the data-dependent failure model.
type CouplingConfig = coupling.Config

// DefaultCouplingConfig returns the model used by the paper
// reproduction experiments.
func DefaultCouplingConfig() CouplingConfig { return coupling.DefaultConfig() }

// FaultsConfig parameterizes the random-failure injectors (soft
// errors, VRT, marginal cells, weak cells, remapped columns).
type FaultsConfig = faults.Config

// DefaultFaultsConfig returns the injector rates used by the paper
// reproduction experiments.
func DefaultFaultsConfig() FaultsConfig { return faults.DefaultConfig() }

// ModuleConfig describes a simulated DRAM module.
type ModuleConfig = dram.ModuleConfig

// Module is a simulated DRAM module (a set of chips sharing one
// vendor profile).
type Module = dram.Module

// NewModule builds a simulated module. Zero Coupling/Faults configs
// mean "no failures"; use the Default*Config helpers for realistic
// populations.
func NewModule(cfg ModuleConfig) (*Module, error) { return dram.NewModule(cfg) }

// ExperimentGeometry is the scaled-down per-chip geometry used by
// the reproduction experiments.
func ExperimentGeometry() Geometry { return dram.ExperimentGeometry() }

// Host is the system-level test host: the only interface through
// which the detection algorithm touches a module. Its five ctx-first
// pass/read methods are Pass (write rows, wait, report every
// mismatched cell), Probe (the same pass watching one cell per entry,
// reporting which entries' cells flipped: the shape of the recursion
// and the victim probes), Verify (wait and compare without writing),
// FullPass (every row of the module from a RowSource) and ReadRowInto
// (a plain row load).
type Host = memctl.Host

// Row identifies one row of one chip in a module.
type Row = memctl.Row

// BitAddr identifies one cell by system address.
type BitAddr = memctl.BitAddr

// RowSource supplies one row's pattern data for a full-module pass
// (Host.FullPass): it either fills the host-owned buf it is handed and
// returns it, or returns its own immutable row, which the host
// aliases — a source returning one filled row of a uniform pattern
// makes the sweep free of per-row pattern generation.
type RowSource = memctl.RowSource

// NewHost wraps a module in a test host. waitMs is the retention
// wait per test pass; 0 selects the paper's 4 s experimental
// interval. Per-chip work is sharded across GOMAXPROCS workers; use
// NewHostWithConfig to bound or disable the pool.
func NewHost(mod *Module, waitMs float64) (*Host, error) { return memctl.NewHost(mod, waitMs) }

// HostConfig tunes a test host: the retention wait and the
// Parallelism bound for the host's per-chip worker pool (0 =
// GOMAXPROCS, 1 = serial). Detection output is bit-identical at every
// parallelism setting.
type HostConfig = memctl.HostConfig

// NewHostWithConfig wraps a module in a test host with explicit
// tuning.
func NewHostWithConfig(mod *Module, cfg HostConfig) (*Host, error) {
	return memctl.NewHostWithConfig(mod, cfg)
}

// Recorder receives observability events (DRAM-command counts, pass
// counters, timing histograms) from an instrumented module and host.
// Attach one via ModuleConfig.Recorder and HostConfig.Recorder; nil
// disables instrumentation at near-zero cost, and results are
// bit-identical either way.
type Recorder = obs.Recorder

// Collector is the standard Recorder: atomic counters plus
// histograms, with stage accounting and a JSON report snapshot.
type Collector = obs.Collector

// ObsReport is the JSON-serializable observability report a
// Collector snapshots: config echo, per-stage wall time and command
// deltas, command totals, timing summaries, derived figures.
type ObsReport = obs.Report

// NewCollector returns an empty Collector whose wall clock starts
// now.
func NewCollector() *Collector { return obs.NewCollector() }

// ReadObsReport loads and validates a report written by
// ObsReport.WriteFile.
func ReadObsReport(path string) (*ObsReport, error) { return obs.ReadReportFile(path) }

// Timing holds DDR3 command timings for the analytic test-time
// model.
type Timing = memctl.Timing

// DDR3_1600 returns the paper's timing constants.
func DDR3_1600() Timing { return memctl.DDR3_1600() }

// DetectConfig tunes the PARBOR tester; the zero value selects the
// paper's defaults.
type DetectConfig = core.Config

// Tester runs PARBOR against one module.
type Tester = core.Tester

// NewTester builds a tester on a host.
func NewTester(host *Host, cfg DetectConfig) (*Tester, error) { return core.New(host, cfg) }

// NeighborResult is the outcome of neighbor-location detection
// (Table 1 / Figure 11 data).
type NeighborResult = core.NeighborResult

// Report is the outcome of the full PARBOR pipeline.
type Report = core.Report

// FailureSet is a set of failing cell addresses.
type FailureSet = core.FailureSet

// Victim identifies a known data-dependent victim cell.
type Victim = core.Victim

// TestTimeModel is the analytic hardware test-time model of the
// paper's Appendix.
type TestTimeModel = testtime.Model

// NewTestTimeModel returns the Appendix's model (DDR3-1600, 64 ms
// waits).
func NewTestTimeModel() TestTimeModel { return testtime.New() }

// RefreshKind selects a refresh policy for the system simulation.
type RefreshKind = refresh.Kind

// The refresh policies of the DC-REF study (Figure 16).
const (
	RefreshUniform = refresh.Uniform
	RefreshRAIDR   = refresh.RAIDR
	RefreshDCREF   = refresh.DCREF
)

// RefreshKinds lists the policies in evaluation order.
func RefreshKinds() []RefreshKind { return refresh.Kinds() }

// App is a synthetic SPEC-like workload profile.
type App = trace.App

// Workloads builds n random multi-programmed mixes of `cores` apps.
func Workloads(n, cores int, seed uint64) [][]App { return trace.Workloads(n, cores, seed) }

// SimConfig describes one DDR3 system-simulation run.
type SimConfig = sim.Config

// SimResult aggregates a run.
type SimResult = sim.Result

// Density selects the simulated chip density.
type Density = sim.Density

// The densities of Figure 16.
const (
	Density16Gbit = sim.Density16Gbit
	Density32Gbit = sim.Density32Gbit
)

// RunSim executes one refresh-policy simulation.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// CouplingKind is the system-observable coupling class assigned by
// Tester.ClassifyVictims.
type CouplingKind = core.CouplingKind

// Victim classes (see Tester.ClassifyVictims).
const (
	KindUnknown            = core.KindUnknown
	KindContentIndependent = core.KindContentIndependent
	KindSingle             = core.KindSingle
	KindPair               = core.KindPair
)

// ClassifiedVictim pairs a victim with its probe-derived class.
type ClassifiedVictim = core.ClassifiedVictim

// Pattern is a row data pattern.
type Pattern = patterns.Pattern

// NeighborAwarePatterns builds the worst-case stress patterns for a
// detected distance set and scrambling chunk size (Section 5.2.5).
func NeighborAwarePatterns(distances []int, chunkBits int) ([]Pattern, error) {
	return patterns.NeighborAware(distances, chunkBits)
}

// RetentionConfig tunes the retention-time profiler.
type RetentionConfig = retention.Config

// RetentionProfiler measures per-row retention times through a host.
type RetentionProfiler = retention.Profiler

// RetentionProfile is a full module retention profile.
type RetentionProfile = retention.Profile

// NewRetentionProfiler builds a profiler on a host.
func NewRetentionProfiler(host *Host, cfg RetentionConfig) (*RetentionProfiler, error) {
	return retention.New(host, cfg)
}

// MarchTest is a classical memory March test.
type MarchTest = march.Test

// MarchEngine executes March and NPSF tests through a host.
type MarchEngine = march.Engine

// NewMarchEngine builds a March engine on a host.
func NewMarchEngine(host *Host) (*MarchEngine, error) { return march.NewEngine(host) }

// Standard March tests and the DRAM retention-delay adapter.
func MATSPlus() MarchTest    { return march.MATSPlus() }
func MarchCMinus() MarchTest { return march.MarchCMinus() }
func MarchSS() MarchTest     { return march.MarchSS() }

// WithRetentionDelays inserts retention delays before the read
// elements of a March test, the DRAM-specific adaptation.
func WithRetentionDelays(t MarchTest, delayMs float64) MarchTest {
	return march.WithRetentionDelays(t, delayMs)
}

// ContentMatcher is the bit-accurate DC-REF write-time content check.
type ContentMatcher = refresh.Matcher

// VulnerableCell describes one vulnerable cell for the matcher.
type VulnerableCell = refresh.VulnerableCell

// NewContentMatcher builds a matcher from a detected distance set.
func NewContentMatcher(distances []int, rowBits int) (*ContentMatcher, error) {
	return refresh.NewMatcher(distances, rowBits)
}

// RepairBudget is the spare-resource capacity available for failure
// mitigation (spare rows, bit-remap entries, per-word ECC).
type RepairBudget = repair.Budget

// RepairPlan assigns detected failures to mitigation mechanisms.
type RepairPlan = repair.Plan

// RepairOptions modulate planning (e.g. refresh-managed exclusions).
type RepairOptions = repair.Options

// PlanRepair allocates a mitigation budget over detected failures.
func PlanRepair(failures []BitAddr, budget RepairBudget, opts RepairOptions) (*RepairPlan, error) {
	return repair.MakePlan(failures, budget, opts)
}

// RefreshManagedSet derives, from a victim classification, the
// failures a content-based refresh policy can protect without spare
// resources.
func RefreshManagedSet(classified []ClassifiedVictim) map[BitAddr]bool {
	return repair.BuildRefreshManaged(classified)
}

// OnlineConfig tunes the in-field test scheduler, including its
// resilience policies (retry budget and backoff for transient faults).
type OnlineConfig = onlinetest.Config

// OnlineScheduler runs data-preserving test epochs against a live
// module (Section 1's in-the-field deployment setting).
type OnlineScheduler = onlinetest.Scheduler

// OnlineEpochResult summarizes one epoch, including its resilience
// accounting: retries consumed, chips quarantined, skipped and
// unrestored rows, and whether coverage was degraded.
type OnlineEpochResult = onlinetest.EpochResult

// NewOnlineScheduler builds an in-field test scheduler on a host.
func NewOnlineScheduler(host *Host, cfg OnlineConfig) (*OnlineScheduler, error) {
	return onlinetest.New(host, cfg)
}

// OnlineState is a scheduler's complete serializable progress.
type OnlineState = onlinetest.State

// ResumeOnlineScheduler rebuilds a scheduler from exported state; see
// Checkpoint for the full interrupt/resume flow.
func ResumeOnlineScheduler(host *Host, st OnlineState) (*OnlineScheduler, error) {
	return onlinetest.Resume(host, st)
}

// FaultPlane injects controller-side faults into a host's read and
// write paths (attach via HostConfig.Faults). internal/chaos provides
// the standard deterministic implementation.
type FaultPlane = memctl.FaultPlane

// ChaosConfig parameterizes the deterministic fault plane: transient
// read/write fault probabilities, shard stalls, and scheduled chip
// outages. The zero value injects nothing.
type ChaosConfig = chaos.Config

// ChaosPlane is the deterministic FaultPlane implementation.
type ChaosPlane = chaos.Plane

// ChaosWindow schedules a chip outage in host pass-attempt numbers.
type ChaosWindow = chaos.Window

// NewChaosPlane validates cfg and builds a fault plane reporting to
// rec (nil for no reporting).
func NewChaosPlane(cfg ChaosConfig, rec Recorder) (*ChaosPlane, error) {
	return chaos.New(cfg, rec)
}

// IsTransient reports whether an error from a host operation is a
// transient fault worth retrying.
func IsTransient(err error) bool { return memctl.IsTransient(err) }

// FaultedChips extracts the chip attribution from a host pass error,
// reporting ok=false when the error carries none.
func FaultedChips(err error) ([]int, bool) { return memctl.FaultedChips(err) }

// Checkpoint is a parbor/checkpoint/v2 snapshot of an online sweep:
// scheduler state plus per-chip simulation clocks, sufficient to
// resume the sweep bit-identically on a module rebuilt from the same
// configuration and seed.
type Checkpoint = checkpoint.Snapshot

// CaptureCheckpoint snapshots a mid-sweep online run. Call it between
// epochs.
func CaptureCheckpoint(mod *Module, seed uint64, st OnlineState) *Checkpoint {
	return checkpoint.Capture(mod, seed, st)
}

// ExtendedResult is the outcome of second-order neighbor detection
// (Tester.DetectExtendedNeighbors) — the generalization the paper's
// Section 3 scaling argument calls for.
type ExtendedResult = core.ExtendedResult

// TailGated filters a classification down to victims whose failures
// the immediate neighborhood could not reproduce — the inputs to
// Tester.DetectExtendedNeighbors.
func TailGated(classified []ClassifiedVictim) []Victim {
	return core.TailGated(classified)
}
