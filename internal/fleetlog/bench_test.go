package fleetlog

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSpillSort sorts and deduplicates one full default-budget
// spill buffer of analytics-shaped observation keys (analyticsKeys):
// the work every spill run and the final merge's residue pay.
func BenchmarkSpillSort(b *testing.B) {
	keys := analyticsKeys(1 << 20)
	s := &spillSet{mem: make([]spillKey, 0, len(keys))}
	b.SetBytes(int64(len(keys) * keyBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.mem = append(s.mem[:0], keys...)
		b.StartTimer()
		s.sortedMem()
	}
}

// BenchmarkClassifyForcedSpill folds an analytics-shaped event stream
// (analyticsWeakCells, epoch by epoch) through Observe and Finish under
// a key budget small enough that the observation set spills several
// runs and Finish k-way merges them.
func BenchmarkClassifyForcedSpill(b *testing.B) {
	const (
		epochs  = 20
		maxKeys = 1 << 15
	)
	r := rand.New(rand.NewSource(5))
	weak := analyticsWeakCells(r)
	var events []Event
	for epoch := 1; epoch <= epochs; epoch++ {
		for m, cells := range weak {
			ev := Event{Module: fmt.Sprintf("log-%05d", m), Epoch: epoch}
			for _, a := range cells {
				if r.Intn(2) == 0 {
					ev.Fails = append(ev.Fails, a)
				}
			}
			events = append(events, ev)
		}
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewClassifier(ClassifierConfig{MaxKeys: maxKeys, SpillDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			if err := c.Observe(ev); err != nil {
				b.Fatal(err)
			}
		}
		if runs := len(c.obs.runs); runs < 2 {
			b.Fatalf("%d observation runs spilled, want at least 2", runs)
		}
		if _, err := c.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
