package fleetlog

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parbor/internal/faultfs"
	"parbor/internal/memctl"
)

// summaryStates are the states a log's segment summaries can be in;
// Analyze must give the rollup of the log's records in every one.
var summaryStates = []string{"present", "absent", "torn", "stale", "mixed"}

// withSummaryState copies a log directory and puts the copy's
// summaries into state:
//
//   - present: as Analyze wrote them;
//   - absent:  every summary removed;
//   - torn:    every summary cut short;
//   - stale:   every summary out of date, alternately because its
//     segment was rewritten without its last record and because it
//     was replaced by the next segment's summary;
//   - mixed:   segment by segment, one of the four above.
func withSummaryState(t *testing.T, dir, state string) string {
	t.Helper()
	if len(sumFiles(t, dir)) == 0 {
		summarize(t, dir)
	}
	cp := copyLog(t, dir)
	segs, err := listSegments(faultfs.OS{}, cp)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		sum := filepath.Join(cp, sumName(segSeq(seg)))
		if _, err := os.Stat(sum); err != nil {
			continue // a segment the query did not summarize
		}
		st := state
		if st == "mixed" {
			st = summaryStates[i%4]
		}
		switch st {
		case "absent":
			if err := os.Remove(sum); err != nil {
				t.Fatal(err)
			}
		case "torn":
			data, err := os.ReadFile(sum)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(sum, data[:len(data)*(1+i%3)/4], 0o644); err != nil {
				t.Fatal(err)
			}
		case "stale":
			if next := filepath.Join(cp, sumName(segSeq(seg)+1)); i%2 == 1 && fileExists(next) {
				data, err := os.ReadFile(next)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(sum, data, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			path := filepath.Join(cp, seg)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ends := recordEnds(t, data)
			keep := segHeaderLen
			if len(ends) > 1 {
				keep = ends[len(ends)-2]
			}
			if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cp
}

// tailStates are the states of a log's tail and its summary that
// withTailState makes; Analyze must give the rollup of the log's
// records in every one, and leave the tail a summary that describes it
// whenever the tail is untorn.
var tailStates = []string{"present", "absent", "torn", "appended", "torn segment"}

// withTailState copies a summarized log directory and puts the copy's
// tail into state, its sealed segments' summaries left present:
//
//   - present:      the tail's summary as Analyze wrote it;
//   - absent:       the tail's summary removed;
//   - torn:         the tail's summary cut short;
//   - appended:     extra appended to the tail by a writer reopened
//     on the log, which makes the tail's summary stale;
//   - torn segment: half of the tail's last record cut off, as a
//     crash mid-append leaves it, which makes the summary stale too.
func withTailState(t *testing.T, dir, state string, extra []Event) string {
	t.Helper()
	cp := copyLog(t, dir)
	segs, err := listSegments(faultfs.OS{}, cp)
	if err != nil {
		t.Fatal(err)
	}
	tail := filepath.Join(cp, segs[len(segs)-1])
	sum := filepath.Join(cp, sumName(segSeq(segs[len(segs)-1])))
	if !fileExists(sum) {
		t.Fatalf("%s: the tail has no summary to put in state %s", dir, state)
	}
	switch state {
	case "absent":
		if err := os.Remove(sum); err != nil {
			t.Fatal(err)
		}
	case "torn":
		data, err := os.ReadFile(sum)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sum, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	case "appended":
		w, err := OpenWriter(cp, WriterOptions{SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range extra {
			if err := w.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if after, err := listSegments(faultfs.OS{}, cp); err != nil || len(after) != len(segs) {
			t.Fatalf("appending to the tail made segments %v (%v), want %d", after, err, len(segs))
		}
	case "torn segment":
		data, err := os.ReadFile(tail)
		if err != nil {
			t.Fatal(err)
		}
		ends := recordEnds(t, data)
		if len(ends) == 0 {
			t.Fatalf("%s: the tail holds no record to tear", dir)
		}
		start := segHeaderLen
		if len(ends) > 1 {
			start = ends[len(ends)-2]
		}
		if err := os.WriteFile(tail, data[:(start+ends[len(ends)-1])/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// tailSummarized reports whether the log's tail has a summary that
// decodes strictly and describes the tail as it now is.
func tailSummarized(t *testing.T, dir string) bool {
	t.Helper()
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	data, err := os.ReadFile(filepath.Join(dir, sumName(segSeq(tail))))
	if err != nil {
		return false
	}
	h, err := checkRun(data)
	if err != nil {
		return false
	}
	seg, err := os.ReadFile(filepath.Join(dir, tail))
	if err != nil {
		t.Fatal(err)
	}
	return h.meta.segBytes == uint64(len(seg)) && h.meta.crc == crc32.Checksum(seg, castagnoli)
}

// summarize analyzes a log once, which writes a summary beside every
// untorn segment that lacks one.
func summarize(t testing.TB, dir string) {
	t.Helper()
	if _, err := Analyze(context.Background(), dir, ClassifierConfig{SpillDir: t.TempDir()}); err != nil {
		t.Fatalf("summarizing %s: %v", dir, err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// sumFiles lists a log directory's summaries.
func sumFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sums []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), sumSuffix) {
			sums = append(sums, e.Name())
		}
	}
	return sums
}

// logOracle is the naive rollup of the records a log directory holds,
// truncations included.
func logOracle(t *testing.T, dir string) *Rollup {
	t.Helper()
	evs, truncs := readAll(t, dir)
	r := oracleRollup(evs)
	r.Truncations = len(truncs)
	return r
}

// straddlingReplays counts the (module, epoch) events logged in more
// than one segment.
func straddlingReplays(t *testing.T, dir string) int {
	t.Helper()
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		mod   string
		epoch int
	}
	first := make(map[key]int)
	n := 0
	for i, seg := range segs {
		sr, err := openSegment(faultfs.OS{}, filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		var ev Event
		for sr.event(&ev) == nil {
			k := key{ev.Module, ev.Epoch}
			if j, ok := first[k]; !ok {
				first[k] = i
			} else if j != i {
				n++
			}
		}
		sr.close()
	}
	return n
}

// TestAnalyzeSummarizesSealedSegments: the writer leaves summaries to
// Analyze, which writes one beside every untorn segment — one written
// by a writer reopened on the log included, and the tail — that
// decodes strictly and describes the segment; the next Analyze merges
// them to the same rollup.
func TestAnalyzeSummarizesSealedSegments(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	events := genEvents(r, 6, 200)
	dir := t.TempDir()
	half := len(events) / 2
	for _, part := range [][]Event{events[:half], events[half:]} {
		w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range part {
			if err := w.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	if sums := sumFiles(t, dir); len(sums) != 0 {
		t.Fatalf("the writer wrote summaries %v", sums)
	}
	for pass := range 2 {
		got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		diffRollups(t, fmt.Sprintf("pass %d", pass), got, oracleRollup(events))
		if sums := sumFiles(t, dir); len(sums) != len(segs) {
			t.Fatalf("pass %d: %d summaries for %d segments, want one per untorn segment", pass, len(sums), len(segs))
		}
	}
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, sumName(segSeq(seg))))
		if err != nil {
			t.Fatal(err)
		}
		h, err := checkRun(data)
		if err != nil {
			t.Fatalf("%s: summary rejected: %v", seg, err)
		}
		st, err := os.Stat(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if h.meta.segBytes != uint64(st.Size()) || h.meta.records == 0 {
			t.Fatalf("%s: summary meta %+v, segment is %d bytes", seg, h.meta, st.Size())
		}
	}
}

// TestCompactCarriesSummaries: a compacted log has a summary beside
// every segment and gives the source's rollup bytes.
func TestCompactCarriesSummaries(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src, dst := t.TempDir(), t.TempDir()
	w, err := OpenWriter(src, WriterOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range genEvents(r, 5, 150) {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Compacting drops the source's summaries with its segmentation.
	for _, s := range sumFiles(t, src) {
		if err := os.Remove(filepath.Join(src, s)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := Compact(src, dst, WriterOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsOut < 3 {
		t.Fatalf("compacted into %d segments, want at least 3", stats.SegmentsOut)
	}
	if n := len(sumFiles(t, dst)); n != stats.SegmentsOut {
		t.Fatalf("compacted log has %d summaries for %d segments", n, stats.SegmentsOut)
	}
	want, err := Analyze(t.Context(), src, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(t.Context(), dst, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := marshal(t, got), marshal(t, want); g != w {
		t.Fatalf("compacted log's rollup differs:\ngot  %s\nwant %s", g, w)
	}
}

// TestGCRemovesSummaries: GC removes each collected segment's summary
// with it, and the survivors still analyze to their records' rollup.
func TestGCRemovesSummaries(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	dir, segs := writeSegmented(t, genEvents(r, 4, 120), 128)
	if len(segs) < 6 {
		t.Fatalf("log has %d segments, want at least 6", len(segs))
	}
	summarize(t, dir)
	if _, err := GC(faultfs.OS{}, dir, 3); err != nil {
		t.Fatal(err)
	}
	sums := sumFiles(t, dir)
	want := []string{sumName(segSeq(segs[len(segs)-3])), sumName(segSeq(segs[len(segs)-2])), sumName(segSeq(segs[len(segs)-1]))}
	if !slices.Equal(sums, want) {
		t.Fatalf("summaries after GC %v, want %v", sums, want)
	}
	got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	diffRollups(t, "after GC", got, logOracle(t, dir))
}

// TestGCSweepsSummaryDebris: GC removes the temporary file a crash
// left between creating a summary and renaming it, and a summary whose
// segment is gone, as a query that summarized a segment while GC
// removed it leaves, also when no segment is due; it keeps every valid
// summary and every other file, and the log still analyzes to its
// records' rollup.
func TestGCSweepsSummaryDebris(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	dir, segs := writeSegmented(t, genEvents(r, 4, 120), 128)
	if len(segs) < 6 {
		t.Fatalf("log has %d segments, want at least 6", len(segs))
	}
	summarize(t, dir)
	first := filepath.Join(dir, sumName(segSeq(segs[0])))
	orphan, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(segs) - 2, len(segs)} {
		// The query's rename lands after GC removed the segment.
		if err := os.WriteFile(first, orphan, 0o644); err != nil {
			t.Fatal(err)
		}
		debris := []string{
			sumName(segSeq(segs[0])),
			sumName(segSeq(segs[1])) + ".4242-1.tmp",
			sumName(segSeq(segs[len(segs)-2])) + ".4242-2.tmp",
		}
		for _, name := range debris[1:] {
			if err := os.WriteFile(filepath.Join(dir, name), orphan[:len(orphan)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		other := filepath.Join(dir, "notes.tmp")
		if err := os.WriteFile(other, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		removed, err := GC(faultfs.OS{}, dir, keep)
		if err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		if keep == len(segs) && len(removed) != 0 {
			t.Fatalf("keep %d: removed segments %v", keep, removed)
		}
		for _, name := range debris {
			if fileExists(filepath.Join(dir, name)) {
				t.Fatalf("keep %d: %s survived GC", keep, name)
			}
		}
		if !fileExists(other) {
			t.Fatalf("keep %d: GC removed a file that is not summary debris", keep)
		}
		left, err := listSegments(faultfs.OS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, seg := range left {
			want = append(want, sumName(segSeq(seg)))
		}
		if sums := sumFiles(t, dir); !slices.Equal(sums, want) {
			t.Fatalf("keep %d: summaries after GC %v, want %v", keep, sums, want)
		}
		got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		diffRollups(t, fmt.Sprintf("keep %d", keep), got, logOracle(t, dir))
	}
}

// sweepingFS runs GC, with no segment due, just before every rename of
// a temporary summary, so the sweep removes the file the query is
// about to rename; it counts the renames.
type sweepingFS struct {
	faultfs.FS
	dir     string
	renames atomic.Int32
}

func (s *sweepingFS) Rename(from, to string) error {
	if strings.HasSuffix(from, ".tmp") {
		s.renames.Add(1)
		if _, err := GC(faultfs.OS{}, s.dir, math.MaxInt); err != nil {
			return err
		}
	}
	return s.FS.Rename(from, to)
}

// TestAnalyzeTempSummaryVanishes: a query whose temporary summary file
// GC sweeps before the query renames it still gives the oracle's
// rollup, and leaves neither a summary nor a temporary file.
func TestAnalyzeTempSummaryVanishes(t *testing.T) {
	events := genEvents(rand.New(rand.NewSource(37)), 5, 300)
	dir, segs := writeSegmented(t, events, 256)
	if len(segs) < 4 {
		t.Fatalf("log has %d segments, want at least 4", len(segs))
	}
	withGOMAXPROCS(t, []int{1, 2}, func(t *testing.T, procs int) {
		fsys := &sweepingFS{FS: faultfs.OS{}, dir: dir}
		got, err := Analyze(t.Context(), dir, ClassifierConfig{FS: fsys, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		diffRollups(t, "vanished temporary summaries", got, oracleRollup(events))
		if fsys.renames.Load() == 0 {
			t.Fatal("no summary was renamed into place")
		}
		if sums, tmp := sumFiles(t, dir), tempFiles(t, dir); len(sums)+len(tmp) != 0 {
			t.Fatalf("files left beside the segments: %v %v", sums, tmp)
		}
	})
}

// TestAnalyzeCancelled: Analyze stops once its context is done and
// returns the context's error, with no spill run left behind, whether
// the context ends before the scan or in the middle of it.
func TestAnalyzeCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	dir, segs := writeSegmented(t, genEvents(r, 8, 600), 512)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T, procs int) {
		for _, state := range []string{"present", "absent"} {
			sdir := withSummaryState(t, dir, state)
			ctx, cancel := context.WithCancel(t.Context())
			cancel()
			spill := filepath.Join(t.TempDir(), "spill")
			if _, err := Analyze(ctx, sdir, ClassifierConfig{MaxKeys: 8, SpillDir: spill}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: Analyze under a cancelled context: %v", state, err)
			}

			ctx, cancel = context.WithCancel(t.Context())
			fsys := &cancelFS{FS: faultfs.OS{}, after: int32(len(segs) / 2), cancel: cancel}
			_, err := Analyze(ctx, sdir, ClassifierConfig{MaxKeys: 8, SpillDir: spill, FS: fsys})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: Analyze cancelled mid-scan: %v", state, err)
			}
			if left := runFiles(t, spill); len(left) != 0 {
				t.Fatalf("%s: spill dir keeps %d runs after cancellation", state, len(left))
			}
		}
	})
}

// cancelFS cancels a context once it has opened after segments.
type cancelFS struct {
	faultfs.FS
	after  int32
	cancel context.CancelFunc
	opened atomic.Int32
}

func (c *cancelFS) Open(name string) (faultfs.File, error) {
	if strings.HasSuffix(name, segSuffix) && c.opened.Add(1) == c.after {
		c.cancel()
	}
	return c.FS.Open(name)
}

// TestSummaryCodecRoundTrip: a run decodes back to the keys it was
// built from, re-encoding them gives the same bytes, and a run cut
// short or with a byte flipped is rejected.
func TestSummaryCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	meta := runMeta{segBytes: 12345, records: 300, crc: 0xfeedface}
	sh := &shard{b: newRunBuilder(1 << 20)}
	for _, ev := range genEvents(r, 9, 300) {
		if err := sh.observe(&ev); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := sh.b.appendRun(nil, meta)
	h, err := checkRun(data)
	if err != nil {
		t.Fatalf("checkRun: %v", err)
	}
	if h.meta != meta {
		t.Fatalf("meta %+v, want %+v", h.meta, meta)
	}
	if again := reencodeRun(data, h); string(again) != string(data) {
		t.Fatalf("re-encoding drifted:\nin  %x\nout %x", data, again)
	}
	for cut := 0; cut < len(data); cut += 1 + len(data)/97 {
		if _, err := checkRun(data[:cut]); err == nil {
			t.Fatalf("a run cut to %d of %d bytes was accepted", cut, len(data))
		}
	}
	for i := 0; i < len(data); i += 1 + len(data)/53 {
		bad := slices.Clone(data)
		bad[i] ^= 0x40
		if _, err := checkRun(bad); err == nil {
			t.Fatalf("a run with byte %d flipped was accepted", i)
		}
	}
}

// reencodeRun decodes every key of a checked run into a classifier's
// runBuilder and encodes the keys again with the run's meta.
func reencodeRun(data []byte, h *runHeader) []byte {
	b := newRunBuilder(len(data) + 1) // more keys than a run of data's size holds
	ra := memReaderAt(data)
	var es, cs section
	var cr cellReader
	for i, m := range h.mods {
		mod, _ := b.modID(m.name)
		eEnd, cEnd := h.blockEnds(i)
		es.open(ra, m.epochAt, eEnd, 0)
		for _, ep := range es.appendEpochs(nil, m.epochs) {
			b.epochs.add(packEpoch(mod, ep))
		}
		cs.open(ra, m.cellAt, cEnd, 0)
		for cr.start(&cs, m.cells); cr.next(); {
			a := addr(int(cr.at.chip), int(cr.at.bank), int(cr.at.row), int(cr.at.col))
			for _, ep := range cs.appendEpochs(nil, cr.epochs) {
				b.obs.add(packObs(mod, a, ep))
			}
		}
	}
	out, _ := b.appendRun(nil, h.meta)
	return out
}

// TestSummaryBlocksDecodedInMerge: a summary is checked at open by its
// header and CRC only, and its blocks are decoded once, by the merge. A
// byte flipped in a cell block fails the CRC at open, so the segment is
// decoded instead and its summary rewritten. A header that moves one
// byte of cell block from module i to module i+1, under a recomputed
// CRC, passes the open check; the merge finds that module i's cells do
// not end where the header ends them, and the query fails with an
// error that names the summary.
func TestSummaryBlocksDecodedInMerge(t *testing.T) {
	events := genEvents(rand.New(rand.NewSource(53)), 6, 600)
	dir, segs := writeSegmented(t, events, 4096)
	if len(segs) < 2 {
		t.Fatalf("log has %d segments, want at least 2", len(segs))
	}
	summarize(t, dir)
	name := sumName(segSeq(segs[0]))
	orig, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	h, err := checkRun(orig)
	if err != nil {
		t.Fatal(err)
	}
	cellBytes := func(j int) int64 {
		_, cEnd := h.blockEnds(j)
		return cEnd - h.mods[j].cellAt
	}
	i := 0
	for i+1 < len(h.mods) && cellBytes(i) <= int64(h.mods[i].cells*minCellBytes) {
		i++
	}
	if i+1 >= len(h.mods) {
		t.Fatalf("%s has no module whose cell block can lose a byte and a module after it", name)
	}
	analyze := func(t *testing.T, data []byte) (*Rollup, string, error) {
		t.Helper()
		cp := copyLog(t, dir)
		path := filepath.Join(cp, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(t.Context(), cp, ClassifierConfig{SpillDir: t.TempDir()})
		return r, path, err
	}

	t.Run("flipped cell byte", func(t *testing.T) {
		bad := slices.Clone(orig)
		bad[h.mods[i].cellAt] ^= 0x01
		got, path, err := analyze(t, bad)
		if err != nil {
			t.Fatal(err)
		}
		diffRollups(t, "a summary with a flipped cell byte", got, oracleRollup(events))
		if data, err := os.ReadFile(path); err != nil || !slices.Equal(data, orig) {
			t.Fatalf("%s was not rewritten (%v)", name, err)
		}
	})

	t.Run("cell byte moved to the next module", func(t *testing.T) {
		bad := append([]byte(runMagic), runVersion)
		bad = binary.AppendUvarint(bad, h.meta.segBytes)
		bad = binary.AppendUvarint(bad, h.meta.records)
		bad = binary.LittleEndian.AppendUint32(bad, h.meta.crc)
		bad = binary.AppendUvarint(bad, uint64(len(h.mods)))
		for j, m := range h.mods {
			eEnd, _ := h.blockEnds(j)
			cBytes := cellBytes(j)
			switch j {
			case i:
				cBytes--
			case i + 1:
				cBytes++
			}
			bad = binary.AppendUvarint(bad, uint64(len(m.name)))
			bad = append(bad, m.name...)
			for _, v := range []int64{int64(m.epochs), eEnd - m.epochAt, int64(m.cells), cBytes} {
				bad = binary.AppendUvarint(bad, uint64(v))
			}
		}
		bad = append(bad, orig[h.mods[0].epochAt:len(orig)-4]...)
		bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
		if _, err := checkRun(bad); err != nil {
			t.Fatalf("the open check rejected the moved byte: %v", err)
		}
		withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T, _ int) {
			if _, _, err := analyze(t, bad); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("Analyze over a summary with a moved cell byte: %v; want an error naming %s", err, name)
			}
		})
	})
}

// summaryOf returns the summary bytes of a small summarized log's
// first segment, for seeding.
func summaryOf(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 96})
	if err != nil {
		tb.Fatal(err)
	}
	for _, ev := range testEvents() {
		if err := w.Append(ev); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	summarize(tb, dir)
	data, err := os.ReadFile(filepath.Join(dir, sumName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestAnalyzeConcurrentQueries: Analyze calls that run at once on a
// log without summaries, and so write the same summaries over each
// other, all give the oracle's rollup, and leave one valid summary
// beside every segment and no temporary file.
func TestAnalyzeConcurrentQueries(t *testing.T) {
	events := genEvents(rand.New(rand.NewSource(31)), 6, 600)
	dir, segs := writeSegmented(t, events, 256)
	want := marshal(t, oracleRollup(events))
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T, procs int) {
		for round := range 4 {
			for _, s := range sumFiles(t, dir) {
				if err := os.Remove(filepath.Join(dir, s)); err != nil {
					t.Fatal(err)
				}
			}
			const queries = 6
			got := make([]*Rollup, queries)
			errs := make([]error, queries)
			spill := make([]string, queries)
			for q := range spill {
				spill[q] = t.TempDir()
			}
			var wg sync.WaitGroup
			for q := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[q], errs[q] = Analyze(t.Context(), dir, ClassifierConfig{SpillDir: spill[q]})
				}()
			}
			wg.Wait()
			for q := range queries {
				if errs[q] != nil {
					t.Fatalf("round %d, query %d: %v", round, q, errs[q])
				}
				if g := marshal(t, got[q]); g != want {
					t.Fatalf("round %d, query %d: rollup differs from the oracle's:\ngot  %s\nwant %s", round, q, g, want)
				}
			}
			if sums := sumFiles(t, dir); len(sums) != len(segs) {
				t.Fatalf("round %d: %d summaries for %d segments", round, len(sums), len(segs))
			}
			for _, s := range sumFiles(t, dir) {
				data, err := os.ReadFile(filepath.Join(dir, s))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := checkRun(data); err != nil {
					t.Fatalf("round %d: %s rejected: %v", round, s, err)
				}
			}
			if tmp := tempFiles(t, dir); len(tmp) != 0 {
				t.Fatalf("round %d: temporary files left: %v", round, tmp)
			}
		}
	})
}

// TestAnalyzeWhileAppending: queries that run while a writer appends
// to the log, rotating now and then, each give the oracle's rollup of
// a prefix of the appended events (a record caught half-written counts
// as a torn tail), though each summarizes the tail as it found it; once
// the writer is closed, a query finds those summaries stale and gives
// the rollup of every event, and leaves the tail a summary that
// describes it.
func TestAnalyzeWhileAppending(t *testing.T) {
	events := genEvents(rand.New(rand.NewSource(47)), 6, 1200)
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T, procs int) {
		dir, _ := writeSegmented(t, events[:200], 2<<10)
		summarize(t, dir)
		w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		appended := make(chan error, 1)
		go func() {
			for _, ev := range events[200:] {
				if err := w.Append(ev); err != nil {
					w.Close()
					appended <- err
					return
				}
			}
			appended <- w.Close()
		}()
		stopped := false
		defer func() {
			if !stopped {
				<-appended
			}
		}()
		partial := 0
		for q := 0; !stopped; q++ {
			select {
			case err := <-appended:
				stopped = true
				if err != nil {
					t.Fatal(err)
				}
			default:
			}
			got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
			if err != nil {
				t.Fatalf("query %d: %v", q, err)
			}
			if got.Events < 200 || got.Events > len(events) {
				t.Fatalf("query %d folded %d events, want 200 to %d", q, got.Events, len(events))
			}
			if got.Events < len(events) {
				partial++
			}
			got.Truncations = 0
			diffRollups(t, fmt.Sprintf("query %d", q), got, oracleRollup(events[:got.Events]))
		}
		t.Logf("%d queries found the writer's appends unfinished", partial)
		got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		diffRollups(t, "after the writer closed", got, oracleRollup(events))
		if !tailSummarized(t, dir) {
			t.Fatal("the tail has no summary that describes it")
		}
	})
}

// appendingFS runs appends once, at the first read of the segment
// named tail, after the query has taken the segment's size.
type appendingFS struct {
	faultfs.FS
	tail    string
	appends func()
	once    sync.Once
}

func (a *appendingFS) Open(name string) (faultfs.File, error) {
	f, err := a.FS.Open(name)
	if err != nil || filepath.Base(name) != a.tail {
		return f, err
	}
	return &appendingFile{File: f, fs: a}, nil
}

type appendingFile struct {
	faultfs.File
	fs *appendingFS
}

func (f *appendingFile) Read(p []byte) (int, error) {
	f.fs.once.Do(f.fs.appends)
	return f.File.Read(p)
}

// TestAnalyzeTailAppendedDuringQuery: a writer appends to the tail
// while a query reads it, whether the query checks the tail's summary
// or decodes the tail. The query gives the rollup of the tail it
// found and, decoding, summarizes that; the next query finds the
// summary stale, gives the rollup of every event, and rewrites the
// tail's summary.
func TestAnalyzeTailAppendedDuringQuery(t *testing.T) {
	events := genEvents(rand.New(rand.NewSource(53)), 6, 400)
	extra := genEvents(rand.New(rand.NewSource(59)), 6, 20)
	all := append(slices.Clone(events), extra...)
	for _, state := range []string{"present", "absent"} {
		dir, segs := writeSegmented(t, events, 2<<10)
		summarize(t, dir)
		tail := segs[len(segs)-1]
		if state == "absent" {
			if err := os.Remove(filepath.Join(dir, sumName(segSeq(tail)))); err != nil {
				t.Fatal(err)
			}
		}
		w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		fsys := &appendingFS{FS: faultfs.OS{}, tail: tail, appends: func() {
			for _, ev := range extra {
				if err := w.Append(ev); err != nil {
					t.Error(err)
				}
			}
		}}
		got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir(), FS: fsys})
		if err != nil {
			t.Fatalf("summary %s: %v", state, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		diffRollups(t, fmt.Sprintf("summary %s, appended during the query", state), got, oracleRollup(events))
		if tailSummarized(t, dir) {
			t.Fatalf("summary %s: the tail's summary covers the bytes appended during the query", state)
		}
		got, err = Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		diffRollups(t, fmt.Sprintf("summary %s, the next query", state), got, oracleRollup(all))
		if !tailSummarized(t, dir) {
			t.Fatalf("summary %s: the next query did not rewrite the tail's summary", state)
		}
	}
}

// tempFiles lists a log directory's temporary summary files.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmp []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			tmp = append(tmp, e.Name())
		}
	}
	return tmp
}

// segmentAdds returns how many keys of each set decoding a segment
// adds to a builder: one epoch key per record, one observation key per
// listed failure.
func segmentAdds(t *testing.T, path string) (epochs, obs int) {
	t.Helper()
	sr, err := openSegment(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.close()
	var ev Event
	for sr.event(&ev) == nil {
		epochs++
		obs += len(ev.Fails)
	}
	return epochs, obs
}

// TestAnalyzeSummarizesWithinBudget: Analyze summarizes a sealed
// segment only when all its keys fit a scan worker's share of MaxKeys;
// a larger one is scanned under the budget on every query, and a
// segment after it is still summarized. The rollup is the oracle's
// either way.
func TestAnalyzeSummarizesWithinBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker: the share is MaxKeys
	events := genEvents(rand.New(rand.NewSource(33)), 4, 900)
	dir, segs := writeSegmented(t, events, 2<<10)
	if len(segs) < 6 {
		t.Fatalf("log has %d segments, want at least 6", len(segs))
	}
	need := make([]int, len(segs)-1) // the budget each sealed segment needs
	for i, seg := range segs[:len(segs)-1] {
		epochs, obs := segmentAdds(t, filepath.Join(dir, seg))
		need[i] = max(epochs, obs) + 1
	}
	sorted := slices.Clone(need)
	slices.Sort(sorted)
	budget := sorted[len(need)/2]
	want := marshal(t, oracleRollup(events))
	for pass := range 2 {
		got, err := Analyze(t.Context(), dir, ClassifierConfig{MaxKeys: budget, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if g := marshal(t, got); g != want {
			t.Fatalf("pass %d: rollup differs from the oracle's:\ngot  %s\nwant %s", pass, g, want)
		}
		fits := 0
		for i, seg := range segs[:len(segs)-1] {
			has := fileExists(filepath.Join(dir, sumName(segSeq(seg))))
			if has != (need[i] <= budget) {
				t.Fatalf("pass %d: %s needs a budget of %d keys, MaxKeys is %d, summarized %v", pass, seg, need[i], budget, has)
			}
			if has {
				fits++
			}
		}
		if fits == 0 || fits == len(need) {
			t.Fatalf("%d of %d sealed segments fit the budget; the test needs both kinds", fits, len(need))
		}
	}
}

// noTempFS fails every attempt to create a temporary summary file, as
// a read-only or full log directory would, and counts the attempts.
type noTempFS struct {
	faultfs.FS
	tries atomic.Int32
}

func (n *noTempFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	if strings.HasSuffix(name, ".tmp") {
		n.tries.Add(1)
		return nil, os.ErrPermission
	}
	return n.FS.OpenFile(name, flag, perm)
}

// TestAnalyzeWithoutWritableSummaries: where no summary can be
// written, Analyze still gives the oracle's rollup and writes nothing
// beside the segments, and a query stops trying after the first
// failure.
func TestAnalyzeWithoutWritableSummaries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	events := genEvents(rand.New(rand.NewSource(35)), 5, 300)
	dir, segs := writeSegmented(t, events, 256)
	if len(segs) < 4 {
		t.Fatalf("log has %d segments, want at least 4", len(segs))
	}
	fsys := &noTempFS{FS: faultfs.OS{}}
	got, err := Analyze(t.Context(), dir, ClassifierConfig{FS: fsys, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	diffRollups(t, "unwritable summaries", got, oracleRollup(events))
	if n := fsys.tries.Load(); n != 1 {
		t.Fatalf("%d summary writes tried, want 1", n)
	}
	if sums, tmp := sumFiles(t, dir), tempFiles(t, dir); len(sums)+len(tmp) != 0 {
		t.Fatalf("files written beside the segments: %v %v", sums, tmp)
	}
}

// TestSummaryCRCSeesPayloads: two single-record segments whose records
// have the same framing but different payloads get summaries with the
// same length and record count and different segment CRCs, so neither
// summary passes for the other's. Under the IEEE polynomial of the
// record checksums the two whole-file CRCs would be equal: each
// payload's CRC cancels it.
func TestSummaryCRCSeesPayloads(t *testing.T) {
	events := []Event{
		{Module: "m-a", Epoch: 1, Fails: []memctl.BitAddr{addr(0, 0, 3, 7)}},
		{Module: "m-b", Epoch: 2, Fails: []memctl.BitAddr{addr(1, 0, 3, 9)}},
		{Module: "m-c", Epoch: 3},
	}
	dir, segs := writeSegmented(t, events, 1)
	if len(segs) != 3 {
		t.Fatalf("log has %d segments, want one per event", len(segs))
	}
	summarize(t, dir)
	var seg [2][]byte
	var meta [2]runMeta
	for i := range seg {
		var err error
		if seg[i], err = os.ReadFile(filepath.Join(dir, segs[i])); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, sumName(segSeq(segs[i]))))
		if err != nil {
			t.Fatal(err)
		}
		h, err := checkRun(data)
		if err != nil {
			t.Fatal(err)
		}
		meta[i] = h.meta
	}
	if len(seg[0]) != len(seg[1]) || slices.Equal(seg[0], seg[1]) {
		t.Fatalf("segments of %d and %d bytes; want equal lengths and different bytes", len(seg[0]), len(seg[1]))
	}
	if meta[0].segBytes != meta[1].segBytes || meta[0].records != 1 || meta[1].records != 1 {
		t.Fatalf("summary metas %+v and %+v; want one record each and equal lengths", meta[0], meta[1])
	}
	if meta[0].crc == meta[1].crc {
		t.Fatalf("both summaries carry segment CRC %#08x for different bytes", meta[0].crc)
	}
	// The neighbour's summary beside the first segment is stale.
	data, err := os.ReadFile(filepath.Join(dir, sumName(segSeq(segs[1]))))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, sumName(segSeq(segs[0]))), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	diffRollups(t, "a neighbour's summary", got, oracleRollup(events))
}

// TestAnalyzeRebuildsV1Summaries: a summary of an earlier format
// version is never merged, even when everything in it but the version
// matches its segment, and the query rewrites it in the current
// format. The version-1 summaries here carry keys their segments do
// not hold, so merging one would change the rollup.
func TestAnalyzeRebuildsV1Summaries(t *testing.T) {
	events := genEvents(rand.New(rand.NewSource(43)), 6, 300)
	dir, segs := writeSegmented(t, events, 512)
	if len(segs) < 4 {
		t.Fatalf("log has %d segments, want at least 4", len(segs))
	}
	summarize(t, dir)
	sums := sumFiles(t, dir)
	if len(sums) != len(segs) {
		t.Fatalf("%d summaries for %d segments", len(sums), len(segs))
	}
	current := make(map[string][]byte)
	for _, name := range sums {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		current[name] = data
		h, err := checkRun(data)
		if err != nil {
			t.Fatal(err)
		}
		sh := &shard{b: newRunBuilder(1 << 10)}
		if err := sh.observe(&Event{Module: "v1-only", Epoch: 1, Fails: []memctl.BitAddr{addr(1, 1, 1, 1)}}); err != nil {
			t.Fatal(err)
		}
		v1, _ := sh.b.appendRun(nil, h.meta)
		v1[len(runMagic)] = 1
		body := v1[:len(v1)-4]
		binary.LittleEndian.PutUint32(v1[len(body):], crc32.ChecksumIEEE(body))
		if _, err := checkRun(v1); err == nil {
			t.Fatalf("%s: checkRun accepted a version-1 summary", name)
		}
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	diffRollups(t, "version-1 summaries", got, oracleRollup(events))
	for name, want := range current {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(data, want) {
			t.Fatalf("%s was not rewritten as the current summary (version byte %d)", name, data[len(runMagic)])
		}
	}
}
