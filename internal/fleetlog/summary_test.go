package fleetlog

import (
	"context"
	"errors"
	"fmt"
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
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(faultfs.OS{}, cp)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		sum := filepath.Join(cp, sumName(segSeq(seg)))
		if _, err := os.Stat(sum); err != nil {
			continue // the tail, or a segment the writer did not summarize
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

// summarize analyzes a log once, which writes a summary beside every
// sealed segment that lacks one.
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
// Analyze, which writes one beside every sealed segment — one written
// by a writer reopened on the log included — that decodes strictly
// and describes the segment, and none beside the tail; the next
// Analyze merges them to the same rollup.
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
		if sums := sumFiles(t, dir); len(sums) != len(segs)-1 {
			t.Fatalf("pass %d: %d summaries for %d segments, want one per sealed segment", pass, len(sums), len(segs))
		}
	}
	if fileExists(filepath.Join(dir, sumName(segSeq(segs[len(segs)-1])))) {
		t.Fatal("the tail segment has a summary")
	}
	for _, seg := range segs[:len(segs)-1] {
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
// every sealed segment and gives the source's rollup bytes.
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
	if n := len(sumFiles(t, dst)); n != stats.SegmentsOut-1 {
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
	want := []string{sumName(segSeq(segs[len(segs)-3])), sumName(segSeq(segs[len(segs)-2]))}
	if !slices.Equal(sums, want) {
		t.Fatalf("summaries after GC %v, want %v", sums, want)
	}
	got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	diffRollups(t, "after GC", got, logOracle(t, dir))
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
	meta := runMeta{segBytes: 12345, records: 300, digest: 0xfeedface}
	sh := &shard{b: newRunBuilder(1 << 20)}
	for _, ev := range genEvents(r, 9, 300) {
		if err := sh.observe(&ev); err != nil {
			t.Fatal(err)
		}
	}
	data := sh.b.appendRun(nil, meta)
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
	return b.appendRun(nil, h.meta)
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
// beside every sealed segment and no temporary file.
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
			if sums := sumFiles(t, dir); len(sums) != len(segs)-1 {
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
	budget := slices.Sorted(slices.Values(need))[len(need)/2]
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
