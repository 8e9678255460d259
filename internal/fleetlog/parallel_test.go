package fleetlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parbor/internal/faultfs"
)

// withGOMAXPROCS runs f at each GOMAXPROCS value in turn and restores
// the original setting afterwards.
func withGOMAXPROCS(t *testing.T, procs []int, f func(t *testing.T, procs int)) {
	t.Helper()
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) { f(t, p) })
	}
}

// writeSegmented writes events into a fresh log of small segments and
// returns the directory and its segment names, in order.
func writeSegmented(t testing.TB, events []Event, segBytes int64) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, segs
}

// recordEnds returns the end offset of every record frame in a
// segment's bytes.
func recordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for off := segHeaderLen; off < len(data); {
		plen, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatalf("bad record length at offset %d", off)
		}
		off += n + int(plen) + 4
		ends = append(ends, off)
	}
	return ends
}

// marshal is the rollup's canonical bytes.
func marshal(t testing.TB, r *Rollup) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalyzeParallelMatchesSerial: the segment-parallel Analyze gives
// the byte-identical rollup, truncation count included, that one
// classifier fed the same log serially gives, and that the naive
// oracle gives, at every worker count and key budget, with the
// segment summaries present, absent, torn, stale or mixed. The log has
// many small segments, replayed duplicates (some in another segment
// than the event they replay), and torn tails in two segments in the
// middle of the log.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	events := genEvents(r, 12, 400)
	for i := 0; i < 60; i++ {
		events = append(events, events[r.Intn(len(events))])
	}
	r.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	dir, segs := writeSegmented(t, events, 512)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	for _, k := range []int{2, len(segs) / 2} {
		path := filepath.Join(dir, segs[k])
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-3); err != nil {
			t.Fatal(err)
		}
	}

	// The serial reference: the events that survive, in log order,
	// through one classifier and through the oracle.
	survived, truncs := readAll(t, dir)
	if len(truncs) != 2 {
		t.Fatalf("serial read recovered %d torn tails, want 2", len(truncs))
	}
	serial := classifyEvents(t, survived, ClassifierConfig{SpillDir: t.TempDir()})
	serial.Truncations = len(truncs)
	oracle := oracleRollup(survived)
	oracle.Truncations = len(truncs)
	want := marshal(t, serial)
	if got := marshal(t, oracle); got != want {
		t.Fatalf("serial classifier and oracle disagree:\nserial %s\noracle %s", want, got)
	}

	// The same log with its summaries in every state, and the oracle's
	// rollup of the records each copy holds.
	if n := straddlingReplays(t, dir); n == 0 {
		t.Fatal("no replayed event straddles two segments")
	}
	// Analyze repairs the summaries it finds wanting, so every run gets
	// a fresh copy in its state.
	wants := map[string]string{}
	for _, state := range summaryStates {
		wants[state] = marshal(t, logOracle(t, withSummaryState(t, dir, state)))
	}
	if wants["present"] != want || wants["absent"] != want {
		t.Fatalf("copies of the log hold other records:\npresent %s\nabsent  %s\nwant    %s", wants["present"], wants["absent"], want)
	}

	withGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T, procs int) {
		for _, state := range summaryStates {
			for _, maxKeys := range []int{4, 64, 0} {
				got, err := Analyze(t.Context(), withSummaryState(t, dir, state), ClassifierConfig{MaxKeys: maxKeys, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("summaries %s, MaxKeys %d: Analyze: %v", state, maxKeys, err)
				}
				if g := marshal(t, got); g != wants[state] {
					t.Fatalf("summaries %s, MaxKeys %d: parallel rollup differs from serial:\ngot  %s\nwant %s", state, maxKeys, g, wants[state])
				}
			}
		}
	})
}

// corruptCRC flips a byte of the checksum of record k of a segment, so
// reading it is hard corruption (it is not the segment's last record,
// so it cannot pass for a torn tail).
func corruptCRC(t *testing.T, path string, k int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, data)
	if k >= len(ends)-1 {
		t.Fatalf("%s has %d records; record %d is not mid-segment", path, len(ends), k)
	}
	data[ends[k]-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// serialError is the error a serial scan of the log meets first.
func serialError(t *testing.T, dir string) error {
	t.Helper()
	it, err := OpenIter(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var ev Event
	for {
		if err := it.nextInto(&ev); err != nil {
			if err == io.EOF {
				t.Fatal("serial scan met no error")
			}
			return err
		}
	}
}

// runFiles lists the spill runs left in dir.
func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var runs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".run") {
			runs = append(runs, e.Name())
		}
	}
	return runs
}

// copyLog copies a log directory's files into a fresh directory.
func copyLog(t testing.TB, dir string) string {
	t.Helper()
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
	return cp
}

// TestAnalyzeErrorIsSerialError: with corrupt segments, Analyze
// returns the lowest-numbered one's error, the one a serial scan meets
// first, at every worker count: where the higher one's corruption sits
// at its first record and the lower one's near its end, where the tail
// (claimed first by more than one worker) alone is corrupt, and where
// the tail fails at its first record and a lower segment near its end.
// Each case runs on a log without summaries and on one summarized
// before the corruption, whose corrupt segments' summaries are then
// stale. Every worker's spill runs are removed on the error path.
func TestAnalyzeErrorIsSerialError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dir, segs := writeSegmented(t, genEvents(r, 8, 600), 512)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	tail := len(segs) - 1
	// The cases with a corrupt tail scan the whole log, so they run
	// under a budget that spills less.
	type errCase struct {
		name       string
		lo         int // the lowest corrupt segment, corrupt near its end
		hi         int // another corrupt segment, corrupt at its first record, or -1
		maxKeys    int
		summarized bool
	}
	cases := []errCase{
		{"sealed", 3, 4, 8, false},
		{"tail", tail, -1, 256, false},
		{"tail and sealed", 2, tail, 256, false},
	}
	for _, tc := range cases {
		tc.name, tc.summarized = "summarized "+tc.name, true
		cases = append(cases, tc)
	}
	dirs := make([]string, len(cases))
	wants := make([]error, len(cases))
	for c, tc := range cases {
		dirs[c] = copyLog(t, dir)
		if tc.summarized {
			summarize(t, dirs[c])
			if n := len(sumFiles(t, dirs[c])); n != len(segs) {
				t.Fatalf("%s: %d summaries for %d segments", tc.name, n, len(segs))
			}
		}
		lo := filepath.Join(dirs[c], segs[tc.lo])
		data, err := os.ReadFile(lo)
		if err != nil {
			t.Fatal(err)
		}
		corruptCRC(t, lo, len(recordEnds(t, data))-2)
		if tc.hi >= 0 {
			corruptCRC(t, filepath.Join(dirs[c], segs[tc.hi]), 0)
		}
		wants[c] = serialError(t, dirs[c])
		if !strings.Contains(wants[c].Error(), segs[tc.lo]) {
			t.Fatalf("%s: serial error %q does not name %s", tc.name, wants[c], segs[tc.lo])
		}
	}

	withGOMAXPROCS(t, []int{1, 2, 4, 8}, func(t *testing.T, procs int) {
		for c, tc := range cases {
			for rep := 0; rep < 10; rep++ {
				spill := filepath.Join(t.TempDir(), "spill")
				_, err := Analyze(t.Context(), dirs[c], ClassifierConfig{MaxKeys: tc.maxKeys, SpillDir: spill})
				if err == nil || err.Error() != wants[c].Error() {
					t.Fatalf("%s, rep %d: Analyze error %v, want the serial scan's %v", tc.name, rep, err, wants[c])
				}
				if left := runFiles(t, spill); len(left) != 0 {
					t.Fatalf("%s, rep %d: spill dir keeps %d runs after the error, first %s", tc.name, rep, len(left), left[0])
				}
			}
		}
	})
}

// gatedFS holds back every open of a segment after a bad one until the
// bad segment's handle is closed, and counts the segment opens that
// start after that close: segments claimed after the scan stopped.
type gatedFS struct {
	faultfs.FS
	index  map[string]int // segment name -> position in the log
	bad    int
	closed chan struct{}
	once   sync.Once
	late   atomic.Int32
}

func (g *gatedFS) Open(name string) (faultfs.File, error) {
	i, seg := g.index[filepath.Base(name)]
	if seg && i > g.bad {
		select {
		case <-g.closed:
			g.late.Add(1)
		default:
			select {
			case <-g.closed:
			case <-time.After(10 * time.Second):
			}
		}
	}
	f, err := g.FS.Open(name)
	if err != nil || !seg || i != g.bad {
		return f, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	faultfs.File
	fs *gatedFS
}

func (f *gatedFile) Close() error {
	err := f.File.Close()
	f.fs.once.Do(func() { close(f.fs.closed) })
	return err
}

// TestAnalyzeStopsClaimingAfterError: once a segment fails, no worker
// claims another segment. Opens of later segments wait until the
// failing segment is released, which a worker does only after stopping
// the scan; after that, the only segments opened may be ones the other
// workers had already claimed, at most one each.
func TestAnalyzeStopsClaimingAfterError(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dir, segs := writeSegmented(t, genEvents(r, 8, 1200), 256)
	if len(segs) < 32 {
		t.Fatalf("log has %d segments, want at least 32", len(segs))
	}
	const bad = 1
	corruptCRC(t, filepath.Join(dir, segs[bad]), 0)
	index := make(map[string]int, len(segs))
	for i, s := range segs {
		index[s] = i
	}
	withGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T, procs int) {
		g := &gatedFS{FS: faultfs.OS{}, index: index, bad: bad, closed: make(chan struct{})}
		if _, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir(), FS: g}); err == nil || !strings.Contains(err.Error(), segs[bad]) {
			t.Fatalf("Analyze error %v, want %s's checksum error", err, segs[bad])
		}
		if late := int(g.late.Load()); late > procs-1 {
			t.Fatalf("%d segments opened after the scan stopped, want at most %d", late, procs-1)
		}
	})
}

// alternatingFS makes two scan workers alternate over a log's sealed
// segments after one of them has opened the tail: the open of sealed
// segment j waits until the opens of segment j+1 and of the tail have
// begun, which the worker holding j cannot do, so the other worker
// claims j+1, and the tail before any sealed segment. A wait that times
// out is counted in stalled, and after one no open waits.
type alternatingFS struct {
	faultfs.FS
	index   map[string]int // segment name -> position in the log
	opened  []chan struct{}
	once    []sync.Once
	stalled atomic.Int32
}

func newAlternatingFS(segs []string) *alternatingFS {
	a := &alternatingFS{FS: faultfs.OS{}, index: make(map[string]int), opened: make([]chan struct{}, len(segs)), once: make([]sync.Once, len(segs))}
	for i, s := range segs {
		a.index[s] = i
		a.opened[i] = make(chan struct{})
	}
	return a
}

func (a *alternatingFS) Open(name string) (faultfs.File, error) {
	if i, seg := a.index[filepath.Base(name)]; seg {
		a.once[i].Do(func() { close(a.opened[i]) })
		tail := len(a.opened) - 1
		if i < tail && a.stalled.Load() == 0 {
			deadline := time.After(10 * time.Second)
			for _, j := range []int{i + 1, tail} {
				select {
				case <-a.opened[j]:
				case <-deadline:
					a.stalled.Add(1)
				}
			}
		}
	}
	return a.FS.Open(name)
}

// TestAnalyzeMergesRunsInSegmentOrder: two scan workers, one of which
// claims the tail first, then alternate over the sealed segments, so
// the runs they hand finish, shard by shard, are not in the log's
// order; finish merges them in segment order, so on a log whose epochs
// ascend no distinct-epoch count takes its fallback sort, with the
// summaries absent (the query writes them) and present.
// A log whose old epochs are logged again in later segments takes the
// sort and still gives the oracle's rollup.
func TestAnalyzeMergesRunsInSegmentOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two scan workers
	events := analyticsEvents(4)
	dir, segs := writeSegmented(t, events, 32<<10)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	want := marshal(t, oracleRollup(events))
	for _, state := range []string{"absent", "present"} {
		fsys := newAlternatingFS(segs)
		before := distinctSorts.Load()
		got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir(), FS: fsys})
		if err != nil {
			t.Fatalf("summaries %s: %v", state, err)
		}
		if n := fsys.stalled.Load(); n != 0 {
			t.Fatalf("summaries %s: %d segment opens waited out their turn; the workers did not take the tail first and alternate", state, n)
		}
		if g := marshal(t, got); g != want {
			t.Fatalf("summaries %s: rollup differs from the oracle's:\ngot  %s\nwant %s", state, g, want)
		}
		if n := distinctSorts.Load() - before; n != 0 {
			t.Fatalf("summaries %s: %d distinct-epoch counts sorted a log whose epochs ascend", state, n)
		}
		if sums := sumFiles(t, dir); len(sums) != len(segs) {
			t.Fatalf("summaries %s: %d summaries for %d segments", state, len(sums), len(segs))
		}
	}

	// Replay the first epochs at the end of the log.
	late := append(slices.Clone(events), events[:len(events)/4]...)
	dir, _ = writeSegmented(t, late, 32<<10)
	before := distinctSorts.Load()
	got, err := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := marshal(t, got), marshal(t, oracleRollup(late)); g != w {
		t.Fatalf("out-of-order log: rollup differs from the oracle's:\ngot  %s\nwant %s", g, w)
	}
	if distinctSorts.Load() == before {
		t.Fatal("a log with old epochs in its last segments took no fallback sort")
	}
}
