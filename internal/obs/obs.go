// Package obs is the zero-dependency observability layer for the
// detection experiments: atomic DRAM-command counters, power-of-two
// timing histograms, stage accounting, and a JSON-serializable
// per-experiment report.
//
// The substrate (package dram), the test host (package memctl) and
// the experiment runner (package exp) are instrumented against the
// Recorder interface. Instrumentation is strictly passive — it never
// touches simulation state — so results are bit-identical whether a
// Recorder is attached or not, and the disabled path costs one nil
// check per event. DRAMScope-style accounting of issued memory
// commands is what makes an experiment auditable: the report a run
// emits reconciles its command totals against the test-pass counts
// the paper reasons about.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Cmd enumerates the DRAM-command classes the substrate accounts
// for.
type Cmd uint8

const (
	// CmdActivate counts row activations: every row-granularity
	// write or read opens (activates) the row once in this host
	// model, so activates always reconcile to writes + reads.
	CmdActivate Cmd = iota
	// CmdWrite counts full-row write-backs through the controller.
	CmdWrite
	// CmdRead counts full-row read-outs.
	CmdRead
	// CmdRefresh counts auto-refresh epochs, per chip.
	CmdRefresh

	numCmds
)

// String returns the report key of the command class.
func (c Cmd) String() string {
	switch c {
	case CmdActivate:
		return "activate"
	case CmdWrite:
		return "write"
	case CmdRead:
		return "read"
	case CmdRefresh:
		return "refresh"
	default:
		return "unknown"
	}
}

// Recorder receives observability events from the instrumented
// substrate. All methods must be safe for concurrent use: the test
// host shards per-chip work across a worker pool and experiments run
// whole modules in parallel. Implementations must be passive —
// recording an event must not influence any simulation result.
//
// Call sites hold a possibly-nil Recorder and skip the call when it
// is nil; the concrete *Collector additionally tolerates nil
// receivers, so a typed-nil Recorder is also safe.
type Recorder interface {
	// Command accounts n DRAM commands of class c.
	Command(c Cmd, n uint64)
	// Add increments the named free-form counter by n (e.g.
	// "host.passes", "host.rows_tested").
	Add(name string, n uint64)
	// ObserveNs records one duration observation, in nanoseconds,
	// into the named timing series (e.g. "host.pass").
	ObserveNs(name string, ns int64)
}

// Collector is the standard Recorder: lock-free atomic command
// counters, mutex-guarded named counters and histograms (these are
// off the per-row hot path), and ordered stage accounting. The zero
// value is not usable; construct with NewCollector. All methods are
// safe on a nil *Collector, so an optional collector can be threaded
// without nil checks at every call site.
type Collector struct {
	start time.Time
	cmds  [numCmds]atomic.Uint64

	mu       sync.Mutex
	counters map[string]uint64     //parbor:guardedby mu
	hists    map[string]*histogram //parbor:guardedby mu
	stages   []*stageRecord        //parbor:guardedby mu
	config   map[string]any        //parbor:guardedby mu
	figures  map[string]float64    //parbor:guardedby mu
}

type stageRecord struct {
	name    string
	started time.Time
	wall    time.Duration
	before  [numCmds]uint64
	after   [numCmds]uint64
	closed  bool
}

// NewCollector returns an empty Collector whose wall clock starts
// now.
func NewCollector() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: make(map[string]uint64),
		hists:    make(map[string]*histogram),
		config:   make(map[string]any),
		figures:  make(map[string]float64),
	}
}

// Command implements Recorder.
func (c *Collector) Command(cmd Cmd, n uint64) {
	if c == nil || cmd >= numCmds {
		return
	}
	c.cmds[cmd].Add(n)
}

// Add implements Recorder.
func (c *Collector) Add(name string, n uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += n
	c.mu.Unlock()
}

// ObserveNs implements Recorder.
func (c *Collector) ObserveNs(name string, ns int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = newHistogram()
		c.hists[name] = h
	}
	c.mu.Unlock()
	h.observe(ns)
}

// StartStage opens a named stage and returns a closer that records
// its wall time and the DRAM commands issued while it ran. Stages
// are meant for the serial phases of a run (discovery, recursion,
// full-chip test, one experiment of a sweep); overlapping stages
// each report every command issued during their own window.
func (c *Collector) StartStage(name string) (stop func()) {
	if c == nil {
		return func() {}
	}
	s := &stageRecord{name: name, started: time.Now()}
	for i := range s.before {
		s.before[i] = c.cmds[i].Load()
	}
	c.mu.Lock()
	c.stages = append(c.stages, s)
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			s.wall = time.Since(s.started)
			for i := range s.after {
				s.after[i] = c.cmds[i].Load()
			}
			s.closed = true
		})
	}
}

// SetConfig stores one key of the run configuration echoed into the
// report.
func (c *Collector) SetConfig(key string, value any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.config[key] = value
	c.mu.Unlock()
}

// SetFigure stores one derived result figure (a headline number of
// the run: total tests, failure counts, mean speedup, ...).
func (c *Collector) SetFigure(name string, value float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.figures[name] = value
	c.mu.Unlock()
}
