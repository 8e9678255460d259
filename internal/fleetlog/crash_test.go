package fleetlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"parbor/internal/faultfs"
	"parbor/internal/memctl"
)

// TestTornWriteEveryByteBoundary is the exhaustive crash model: a
// segment cut at EVERY byte length from empty to complete. For each
// cut the iterator must recover every record that fits entirely within
// the prefix, report exactly one truncation when the cut lands inside
// a frame (and none when it lands on a boundary), and never report
// corruption — truncation is always distinguishable from damage
// because a torn varint keeps its continuation bit and a torn payload
// fails its checksum only at end-of-file. Then a writer reopened over
// the same prefix must truncate the damage and continue the log
// cleanly.
func TestTornWriteEveryByteBoundary(t *testing.T) {
	master := t.TempDir()
	w, err := OpenWriter(master, WriterOptions{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	evs := testEvents()
	// boundaries[i] is the clean prefix length after i records (the
	// segment header alone for i=0).
	boundaries := []int64{int64(segHeaderLen)}
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
		boundaries = append(boundaries, w.size)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(master, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[len(boundaries)-1] {
		t.Fatalf("segment is %d bytes, last boundary %d", len(data), boundaries[len(boundaries)-1])
	}

	sentinel := Event{Module: "post-crash", Epoch: 7, Fails: []memctl.BitAddr{{Chip: 1, Bank: 0, Row: 2, Col: 3}}}
	for cut := 0; cut <= len(data); cut++ {
		cut := int64(cut)
		// Expected recovery for this prefix.
		intact := 0
		wantClean := int64(0) // longest clean prefix (0 when even the header is torn)
		for i, b := range boundaries {
			if cut >= b {
				intact = i
				wantClean = b
			}
		}
		// A cut on a frame boundary is clean; anything shorter than the
		// header (including an empty file — a crash between creat and
		// the header write) is a torn prefix.
		wantTruncs := 1
		if cut == wantClean && cut >= int64(segHeaderLen) {
			wantTruncs = 0
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, truncs := readAll(t, dir)
		label := fmt.Sprintf("cut=%d", cut)
		wantEvs := evs[:intact]
		if intact == 0 {
			wantEvs = nil
		}
		if !reflect.DeepEqual(got, wantEvs) {
			t.Fatalf("%s: recovered %d events, want %d:\ngot  %+v\nwant %+v", label, len(got), intact, got, wantEvs)
		}
		if len(truncs) != wantTruncs {
			t.Fatalf("%s: %d truncations, want %d (%+v)", label, len(truncs), wantTruncs, truncs)
		}
		if wantTruncs == 1 && truncs[0].CleanBytes != wantClean {
			t.Fatalf("%s: truncation at clean byte %d, want %d", label, truncs[0].CleanBytes, wantClean)
		}

		// A writer reopened over the damage must truncate it and append
		// on a clean boundary.
		w2, err := OpenWriter(dir, WriterOptions{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		if err := w2.Append(sentinel); err != nil {
			t.Fatalf("%s: append after recovery: %v", label, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		got, truncs = readAll(t, dir)
		want := append(append([]Event(nil), evs[:intact]...), sentinel)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: post-recovery log drifted:\ngot  %+v\nwant %+v", label, got, want)
		}
		if len(truncs) != 0 {
			t.Fatalf("%s: recovered log still reports truncations: %+v", label, truncs)
		}
	}
}

// rotatingScenario logs events through a writer of tiny segments on
// fsys, with a Sync halfway, closes it, and analyzes the log: every
// rotation syncs and closes a segment, syncs the directory and creates
// the next, and the analysis writes every sealed segment's summary.
func rotatingScenario(t *testing.T, fsys faultfs.FS, dir string, events []Event) error {
	w, err := OpenWriter(dir, WriterOptions{FS: fsys, SegmentBytes: 200, RetryAttempts: 1})
	if err != nil {
		return err
	}
	for i, ev := range events {
		if err := w.Append(ev); err != nil {
			w.Close()
			return err
		}
		if i == len(events)/2 {
			if err := w.Sync(); err != nil {
				w.Close()
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	_, err = Analyze(t.Context(), dir, ClassifierConfig{FS: fsys, SpillDir: t.TempDir()})
	return err
}

// canonical is an event's codec bytes, which ignore the order and
// repeats of its failure list.
func canonical(t *testing.T, ev Event) string {
	t.Helper()
	p, err := appendEvent(nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(p)
}

// TestRotatingWriterCrashSweep stops the world at every operation of a
// rotating writer and of the analysis that summarizes its log, fsyncs
// and summary writes included, on both sides of each and mid-buffer
// for writes. After every crash the log must hold a prefix of the
// appended events and analyze to the naive oracle's rollup of what it
// holds, whatever state the crash left the summaries in; a writer
// reopened on it must continue the log, which must still analyze to
// the oracle's rollup. One scan worker keeps the analysis's operation
// order fixed.
func TestRotatingWriterCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	events := genEvents(rand.New(rand.NewSource(4)), 5, 60)
	count, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rotatingScenario(t, count, t.TempDir(), events); err != nil {
		t.Fatalf("counting pass: %v", err)
	}
	kinds := map[string]int{}
	for _, op := range count.Trace() {
		kinds[string(op.Kind)+filepath.Ext(op.Path)]++
	}
	// A summary is written to a temporary file and renamed into place.
	if kinds["write.tmp"] < 5 || kinds["rename.tmp"] < 5 || kinds["sync.seg"] < 5 || kinds["syncdir"] < 5 {
		t.Fatalf("the scenario's trace covers too few summary writes and syncs: %v", kinds)
	}
	total := count.Ops()
	t.Logf("sweeping %d crash points x 3 crash shapes", total)
	for crashOp := 1; crashOp <= total; crashOp++ {
		for _, crashByte := range []int{0, 3, 1 << 30} {
			name := fmt.Sprintf("op%03d/byte%d", crashOp, crashByte)
			dir := t.TempDir()
			inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{CrashOp: crashOp, CrashByte: crashByte})
			if err != nil {
				t.Fatal(err)
			}
			rotatingScenario(t, inj, dir, events) // error expected: the world stopped
			if !inj.Crashed() {
				t.Fatalf("%s: crash point never reached", name)
			}

			got, _ := readAll(t, dir)
			if len(got) > len(events) {
				t.Fatalf("%s: the log holds %d events, %d were appended", name, len(got), len(events))
			}
			for i := range got {
				if canonical(t, got[i]) != canonical(t, events[i]) {
					t.Fatalf("%s: event %d is not the %d-th appended", name, i, i)
				}
			}
			checkAnalyze(t, name, dir)

			w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 200})
			if err != nil {
				t.Fatalf("%s: reopening: %v", name, err)
			}
			for _, ev := range events[len(got):] {
				if err := w.Append(ev); err != nil {
					t.Fatalf("%s: appending after the crash: %v", name, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s: closing after the crash: %v", name, err)
			}
			checkAnalyze(t, name+"/reopened", dir)
		}
	}
}

// checkAnalyze asserts Analyze gives the oracle's rollup of the
// records dir holds.
func checkAnalyze(t *testing.T, label, dir string) {
	t.Helper()
	got, err := Analyze(t.Context(), dir, ClassifierConfig{MaxKeys: 16, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: Analyze: %v", label, err)
	}
	if g, w := marshal(t, got), marshal(t, logOracle(t, dir)); g != w {
		t.Fatalf("%s: rollup differs from the oracle's:\ngot  %s\nwant %s", label, g, w)
	}
}
