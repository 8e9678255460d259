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
		c := newSerialClassifier(ClassifierConfig{MaxKeys: maxKeys, SpillDir: dir})
		for _, ev := range events {
			if err := c.observe(ev); err != nil {
				b.Fatal(err)
			}
		}
		if runs := len(c.shards[0].runs); runs < 2 {
			b.Fatalf("%d runs spilled, want at least 2", runs)
		}
		if _, err := c.finish(b.Context()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// analyticsEvents is the analytics-shaped event stream the writer and
// Analyze benchmarks log: analyticsWeakCells, epoch by epoch, each weak
// cell failing in about half the epochs, and about 1% of events
// replayed.
func analyticsEvents(epochs int) []Event {
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
			for n := 1 + r.Intn(100)/99; n > 0; n-- {
				events = append(events, ev)
			}
		}
	}
	return events
}

// writeEvents logs events into a fresh directory of segBytes segments.
func writeEvents(b *testing.B, events []Event, segBytes int64) string {
	b.Helper()
	dir := b.TempDir()
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: segBytes})
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// dirBytes sums the sizes of a directory's files with the suffix.
func dirBytes(b *testing.B, dir, suffix string) int64 {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) != suffix {
			continue
		}
		st, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// BenchmarkWriterAppend logs an analytics-shaped stream (20 epochs of
// 2,000 modules) into 256 KiB segments and closes the writer: the
// append path, and each rotation's fsyncs. One op is the whole log.
func BenchmarkWriterAppend(b *testing.B) {
	events := analyticsEvents(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			if err := w.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAnalyze classifies a whole multi-segment log directory,
// analytics-shaped (analyticsEvents), as every query after the first
// does while nothing is appended: each segment's length and CRC-32C,
// the tail's included, checked against its summary by hashing the file
// in bulk, the segments merged from their summaries, and the
// module-range merge, on min(GOMAXPROCS, segments) scan workers and up
// to GOMAXPROCS merge workers. It reports the summaries' size per log
// byte.
func BenchmarkAnalyze(b *testing.B) { benchAnalyze(b, true) }

// BenchmarkAnalyzeNoSummaries is BenchmarkAnalyze with the summaries
// removed before every query, as the first query after the segments
// were written finds them: it decodes, keys and sorts every segment
// into its summary and writes it.
func BenchmarkAnalyzeNoSummaries(b *testing.B) { benchAnalyze(b, false) }

// BenchmarkAnalyzeGrowingTail is BenchmarkAnalyze on a log that a live
// daemon is still appending to: between queries a writer appends a few
// events of the next epoch to the tail, which never rotates, so every
// query finds the tail's summary stale, decodes, keys and sorts the
// tail and rewrites its summary, while the sealed segments merge from
// theirs.
func BenchmarkAnalyzeGrowingTail(b *testing.B) {
	const perQuery = 8
	events := analyticsEvents(21)
	logged := len(analyticsEvents(20))
	dir := writeEvents(b, events[:logged], 256<<10)
	summarize(b, dir)
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	spill := b.TempDir()
	folded := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range perQuery {
			if err := w.Append(events[logged%len(events)]); err != nil {
				b.Fatal(err)
			}
			logged++
		}
		b.StartTimer()
		ru, err := Analyze(b.Context(), dir, ClassifierConfig{SpillDir: spill})
		if err != nil {
			b.Fatal(err)
		}
		if ru.Events != logged {
			b.Fatalf("folded %d events, want %d", ru.Events, logged)
		}
		folded += ru.Events
	}
	b.ReportMetric(float64(folded)/b.Elapsed().Seconds(), "events/s")
}

func benchAnalyze(b *testing.B, summaries bool) {
	events := analyticsEvents(20)
	dir := writeEvents(b, events, 256<<10)
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		b.Fatal(err)
	}
	if len(segs) < 4 {
		b.Fatalf("log has %d segments, want at least 4", len(segs))
	}
	summarize(b, dir)
	size, sums := dirBytes(b, dir, segSuffix), dirBytes(b, dir, sumSuffix)
	spill := b.TempDir()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !summaries {
			b.StopTimer()
			for _, s := range sumFiles(b, dir) {
				if err := os.Remove(filepath.Join(dir, s)); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		ru, err := Analyze(b.Context(), dir, ClassifierConfig{SpillDir: spill})
		if err != nil {
			b.Fatal(err)
		}
		if ru.Events != len(events) {
			b.Fatalf("folded %d events, want %d", ru.Events, len(events))
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(sums)/float64(size), "summary-B/log-B")
}
