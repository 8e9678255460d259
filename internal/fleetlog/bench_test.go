package fleetlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"parbor/internal/faultfs"
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
		if runs := len(c.shards[0].obs.runs); runs < 2 {
			b.Fatalf("%d observation runs spilled, want at least 2", runs)
		}
		if _, err := c.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAnalyze classifies a whole multi-segment log directory,
// analytics-shaped (analyticsWeakCells, epoch by epoch, about 1% of
// events replayed): segment reads, decode, key packing, the per-worker
// sorts and the merge, on min(GOMAXPROCS, segments) scan workers.
func BenchmarkAnalyze(b *testing.B) {
	const epochs = 20
	r := rand.New(rand.NewSource(5))
	weak := analyticsWeakCells(r)
	dir := b.TempDir()
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for epoch := 1; epoch <= epochs; epoch++ {
		for m, cells := range weak {
			ev := Event{Module: fmt.Sprintf("log-%05d", m), Epoch: epoch}
			for _, a := range cells {
				if r.Intn(2) == 0 {
					ev.Fails = append(ev.Fails, a)
				}
			}
			for n := 1 + r.Intn(100)/99; n > 0; n-- {
				if err := w.Append(ev); err != nil {
					b.Fatal(err)
				}
				events++
			}
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		b.Fatal(err)
	}
	if len(segs) < 4 {
		b.Fatalf("log has %d segments, want at least 4", len(segs))
	}
	var size int64
	for _, s := range segs {
		st, err := os.Stat(filepath.Join(dir, s))
		if err != nil {
			b.Fatal(err)
		}
		size += st.Size()
	}
	spill := b.TempDir()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru, err := Analyze(dir, ClassifierConfig{SpillDir: spill})
		if err != nil {
			b.Fatal(err)
		}
		if ru.Events != events {
			b.Fatalf("folded %d events, want %d", ru.Events, events)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
