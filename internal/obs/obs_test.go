package obs

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Command(CmdActivate, 3)
	c.Add("x", 1)
	c.ObserveNs("y", 100)
	c.SetConfig("k", "v")
	c.SetFigure("f", 1.5)
	stop := c.StartStage("stage")
	stop()
	r := c.Snapshot("test")
	if got := r.Counters["x"]; got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
	if got := r.Commands["activate"]; got != 0 {
		t.Fatalf("nil command count = %d, want 0", got)
	}
	if r.Schema != ReportSchema {
		t.Fatalf("nil snapshot schema %q", r.Schema)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatalf("nil snapshot does not reconcile: %v", err)
	}
}

func TestNilRecorderInterfaceIsSafe(t *testing.T) {
	// A typed-nil *Collector stored in the interface must also be
	// inert: the instrumented packages guard on rec != nil, which a
	// typed nil passes.
	var rec Recorder = (*Collector)(nil)
	rec.Command(CmdWrite, 1)
	rec.Add("x", 1)
	rec.ObserveNs("y", 5)
}

func TestCommandCountersConcurrent(t *testing.T) {
	c := NewCollector()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Command(CmdActivate, 2)
				c.Command(CmdWrite, 1)
				c.Command(CmdRead, 1)
				c.Add("host.passes", 1)
				c.ObserveNs("host.pass", int64(i))
			}
		}()
	}
	wg.Wait()
	r := c.Snapshot("test")
	if got := r.Commands["activate"]; got != workers*per*2 {
		t.Fatalf("activates = %d, want %d", got, workers*per*2)
	}
	if got := r.Counters["host.passes"]; got != workers*per {
		t.Fatalf("passes = %d, want %d", got, workers*per)
	}
	if err := r.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if r.Timings["host.pass"].Count != workers*per {
		t.Fatalf("timing count = %d, want %d", r.Timings["host.pass"].Count, workers*per)
	}
}

func TestReconcileFailure(t *testing.T) {
	c := NewCollector()
	c.Command(CmdActivate, 2)
	c.Command(CmdWrite, 1)
	if err := c.Snapshot("test").Reconcile(); err == nil {
		t.Fatal("unbalanced commands reconciled")
	}
}

// TestReconcileResilienceCrossCheck pins the fault/symptom pairing:
// with zero chaos faults, resilience symptoms must be absent — except
// degraded epochs when an inherited quarantine (a chip already out of
// service when the scheduler resumed) explains them. Inherited
// quarantine excuses only degradation, never retries or fresh
// quarantines: those require a fault in this incarnation.
func TestReconcileResilienceCrossCheck(t *testing.T) {
	snap := func(mutate func(*Collector)) *Report {
		c := NewCollector()
		mutate(c)
		return c.Snapshot("test")
	}
	if err := snap(func(c *Collector) {
		c.Add(CounterDegradedEpochs, 1)
	}).Reconcile(); err == nil {
		t.Fatal("degraded epochs with zero faults reconciled")
	}
	if err := snap(func(c *Collector) {
		c.Add(CounterInheritedQuarantine, 1)
		c.Add(CounterDegradedEpochs, 2)
	}).Reconcile(); err != nil {
		t.Fatalf("inherited quarantine did not excuse degraded epochs: %v", err)
	}
	if err := snap(func(c *Collector) {
		c.Add(CounterInheritedQuarantine, 1)
		c.Add(CounterRetries, 1)
	}).Reconcile(); err == nil {
		t.Fatal("retries with zero faults reconciled under inherited quarantine")
	}
	if err := snap(func(c *Collector) {
		c.Add(CounterInheritedQuarantine, 1)
		c.Add(CounterQuarantinedChips, 1)
	}).Reconcile(); err == nil {
		t.Fatal("fresh quarantine with zero faults reconciled under inherited quarantine")
	}
	if err := snap(func(c *Collector) {
		c.Add(CounterChaosWriteFaults, 1)
		c.Add(CounterRetries, 1)
		c.Add(CounterDegradedEpochs, 1)
	}).Reconcile(); err != nil {
		t.Fatalf("faulted run with symptoms failed to reconcile: %v", err)
	}
}

func TestStagesRecordDeltas(t *testing.T) {
	c := NewCollector()
	stop := c.StartStage("write")
	c.Command(CmdActivate, 5)
	c.Command(CmdWrite, 5)
	stop()
	stop() // double close must be idempotent
	c.Command(CmdActivate, 3)
	c.Command(CmdRead, 3)

	r := c.Snapshot("test")
	if len(r.Stages) != 1 {
		t.Fatalf("%d stages, want 1", len(r.Stages))
	}
	s := r.Stages[0]
	if s.Name != "write" {
		t.Fatalf("stage name %q", s.Name)
	}
	if s.Commands["write"] != 5 || s.Commands["activate"] != 5 {
		t.Fatalf("stage delta %v, want 5 writes and 5 activates", s.Commands)
	}
	if _, ok := s.Commands["read"]; ok {
		t.Fatal("stage recorded reads issued after it closed")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 1; i <= 1000; i++ {
		h.observe(int64(i) * 1000) // 1us .. 1ms
	}
	if h.count.Load() != 1000 {
		t.Fatalf("count = %d", h.count.Load())
	}
	p50 := h.quantile(0.5)
	// Power-of-two buckets: the estimate may overshoot by at most
	// one bucket (2x).
	if p50 < 500_000/2 || p50 > 2*500_000*2 {
		t.Fatalf("p50 = %dns, want within 2x of 500us", p50)
	}
	if h.quantile(1) != 1_000_000 {
		t.Fatalf("p100 = %dns, want max 1ms", h.quantile(1))
	}
	s := h.summary()
	if s.MinUs != 1 || s.MaxUs != 1000 {
		t.Fatalf("min/max = %v/%v us, want 1/1000", s.MinUs, s.MaxUs)
	}
	if math.Abs(s.TotalMs-500.5) > 1e-9 {
		t.Fatalf("total = %vms, want 500.5", s.TotalMs)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *histogram
	nilH.observe(5)
	if nilH.quantile(0.5) != 0 {
		t.Fatal("nil histogram not inert")
	}
	if (nilH.summary() != TimingSummary{}) {
		t.Fatal("nil histogram summary not zero")
	}

	h := newHistogram()
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.observe(-10) // clamped
	h.observe(0)
	h.observe(math.MaxInt64) // clamped into the last bucket
	if h.count.Load() != 3 {
		t.Fatalf("count = %d", h.count.Load())
	}
	if got := h.quantile(math.NaN()); got != 0 {
		t.Fatalf("NaN quantile = %d, want 0", got)
	}
	if h.quantile(-1) == 0 && h.count.Load() > 0 {
		// q clamps to 0, which still returns the first occupied
		// bucket's upper edge — never panics.
		t.Log("quantile(-1) returned 0")
	}
}

func TestReportRoundTrip(t *testing.T) {
	c := NewCollector()
	c.SetConfig("vendor", "A")
	c.SetConfig("rows", 256)
	c.SetFigure("total_tests", 90)
	stop := c.StartStage("detect")
	c.Command(CmdActivate, 10)
	c.Command(CmdWrite, 6)
	c.Command(CmdRead, 4)
	c.Command(CmdRefresh, 2)
	c.Add("host.passes", 3)
	c.ObserveNs("host.pass", int64(2*time.Millisecond))
	stop()

	path := filepath.Join(t.TempDir(), "report.json")
	r := c.Snapshot("obs-test")
	if err := r.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "obs-test" || got.Schema != ReportSchema {
		t.Fatalf("round trip header %q %q", got.Tool, got.Schema)
	}
	if got.Commands["activate"] != 10 || got.Commands["refresh"] != 2 {
		t.Fatalf("round trip commands %v", got.Commands)
	}
	if got.Counters["host.passes"] != 3 {
		t.Fatalf("round trip counters %v", got.Counters)
	}
	if got.Figures["total_tests"] != 90 {
		t.Fatalf("round trip figures %v", got.Figures)
	}
	if len(got.Stages) != 1 || got.Stages[0].Name != "detect" {
		t.Fatalf("round trip stages %v", got.Stages)
	}
	if got.Timings["host.pass"].Count != 1 {
		t.Fatalf("round trip timings %v", got.Timings)
	}
	if err := got.Reconcile(); err != nil {
		t.Fatalf("round-tripped report does not reconcile: %v", err)
	}
}

func TestReadReportRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	r := &Report{Schema: "parbor/report/v999", Tool: "x", Commands: map[string]uint64{}}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReportFile(path); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if err := r.Reconcile(); err == nil {
		t.Fatal("unknown schema reconciled")
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartProfiles(filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// No profiles requested: stop is still a valid no-op.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
