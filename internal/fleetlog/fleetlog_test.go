package fleetlog

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parbor/internal/faultfs"
	"parbor/internal/memctl"
)

func addr(chip, bank, row, col int) memctl.BitAddr {
	return memctl.BitAddr{Chip: int16(chip), Bank: int16(bank), Row: int32(row), Col: int32(col)}
}

// testEvents is a small fixed corpus covering the interesting shapes:
// empty epochs, single failures, dense same-row runs, multi-module
// interleave, repeat observations across epochs.
func testEvents() []Event {
	return []Event{
		{Module: "mod-a", Epoch: 1, Fails: []memctl.BitAddr{addr(0, 0, 3, 7)}},
		{Module: "mod-a", Epoch: 2},
		{Module: "mod-b", Epoch: 1, Fails: []memctl.BitAddr{
			addr(0, 0, 5, 1), addr(0, 0, 5, 9), addr(0, 0, 5, 40),
			addr(1, 1, 2, 2), addr(1, 1, 9, 2),
		}},
		{Module: "mod-a", Epoch: 3, Fails: []memctl.BitAddr{addr(0, 0, 3, 7), addr(1, 0, 4, 4)}},
		{Module: "mod-b", Epoch: 2, Fails: []memctl.BitAddr{addr(0, 0, 5, 9)}},
		{Module: "mod-c", Epoch: 9},
	}
}

// readAll drains a log directory.
func readAll(t *testing.T, dir string) ([]Event, []Truncation) {
	t.Helper()
	it, err := OpenIter(faultfs.OS{}, dir)
	if err != nil {
		t.Fatalf("OpenIter: %v", err)
	}
	defer it.Close()
	var evs []Event
	for {
		ev, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		evs = append(evs, ev)
	}
	return evs, it.Truncations()
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	want := testEvents()
	for _, ev := range want {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, truncs := readAll(t, dir)
	if len(truncs) != 0 {
		t.Fatalf("clean log reported truncations: %+v", truncs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestWriterRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment cap forces a rotation on nearly every record.
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 32})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	want := testEvents()
	half := len(want) / 2
	for _, ev := range want[:half] {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen and continue: the log is one stream across the restart.
	w, err = OpenWriter(dir, WriterOptions{SegmentBytes: 32})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, ev := range want[half:] {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append after reopen: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("32-byte cap produced only %d segments", len(segs))
	}
	got, truncs := readAll(t, dir)
	if len(truncs) != 0 {
		t.Fatalf("truncations on a clean rotated log: %+v", truncs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotated round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestOpenWriterRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	evs := testEvents()
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := listSegments(faultfs.OS{}, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear three bytes off the last record, then reopen for append:
	// the writer must truncate the damage and the re-appended record
	// must read back clean.
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if err := w.Append(evs[len(evs)-1]); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, truncs := readAll(t, dir)
	if len(truncs) != 0 {
		t.Fatalf("recovered log still reports truncations: %+v", truncs)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("recovery drifted:\ngot  %+v\nwant %+v", got, evs)
	}
}

func TestIterEmptyAndMissingDir(t *testing.T) {
	dir := t.TempDir()
	evs, truncs := readAll(t, dir)
	if len(evs) != 0 || len(truncs) != 0 {
		t.Fatalf("empty dir yielded %d events, %d truncations", len(evs), len(truncs))
	}
	if _, err := OpenIter(faultfs.OS{}, filepath.Join(dir, "nope")); err == nil {
		t.Fatalf("OpenIter accepted a missing directory")
	}
}

func TestOpenSegmentRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	// A file with segment naming but foreign contents must be an
	// error, not a silent truncate-to-zero.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWriter(dir, WriterOptions{}); err == nil {
		t.Fatalf("OpenWriter accepted a foreign file as its last segment")
	}
	it, err := OpenIter(faultfs.OS{}, dir)
	if err != nil {
		t.Fatalf("OpenIter: %v", err)
	}
	defer it.Close()
	if _, err := it.Next(); err == nil || err == io.EOF {
		t.Fatalf("iterating a foreign segment: err=%v, want corruption", err)
	}
}

func TestCompact(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	w, err := OpenWriter(src, WriterOptions{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents()
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail so compaction has damage to drop.
	segs, _ := listSegments(faultfs.OS{}, src)
	last := filepath.Join(src, segs[len(segs)-1])
	st, _ := os.Stat(last)
	if err := os.Truncate(last, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	stats, err := Compact(src, dst, WriterOptions{})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.Events != len(evs)-1 || stats.Truncations != 1 {
		t.Fatalf("compact stats %+v, want %d events and 1 truncation", stats, len(evs)-1)
	}
	if stats.SegmentsOut >= stats.SegmentsIn {
		t.Fatalf("compaction did not consolidate: %d -> %d segments", stats.SegmentsIn, stats.SegmentsOut)
	}
	got, truncs := readAll(t, dst)
	if len(truncs) != 0 {
		t.Fatalf("compacted log has truncations: %+v", truncs)
	}
	if !reflect.DeepEqual(got, evs[:len(evs)-1]) {
		t.Fatalf("compaction drifted:\ngot  %+v\nwant %+v", got, evs[:len(evs)-1])
	}
	// Compacting onto a non-empty destination must refuse.
	if _, err := Compact(src, dst, WriterOptions{}); err == nil {
		t.Fatalf("Compact overwrote a non-empty destination")
	}
}

func TestCodecRejectsBadEvents(t *testing.T) {
	if _, err := appendEvent(nil, Event{Module: "", Epoch: 1}); err == nil {
		t.Error("empty module id accepted")
	}
	if _, err := appendEvent(nil, Event{Module: "m", Epoch: -1}); err == nil {
		t.Error("negative epoch accepted")
	}
	// Unsorted input encodes canonically.
	p1, err := appendEvent(nil, Event{Module: "m", Epoch: 1, Fails: []memctl.BitAddr{addr(1, 0, 0, 0), addr(0, 0, 0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := appendEvent(nil, Event{Module: "m", Epoch: 1, Fails: []memctl.BitAddr{addr(0, 0, 0, 0), addr(1, 0, 0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != string(p2) {
		t.Error("encoding is order-dependent")
	}
	// A repeated cell encodes as the set: duplicates never reach the log.
	p3, err := appendEvent(nil, Event{Module: "m", Epoch: 1, Fails: []memctl.BitAddr{addr(1, 0, 0, 0), addr(0, 0, 0, 0), addr(1, 0, 0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if string(p3) != string(p2) {
		t.Error("a duplicated cell changed the encoding")
	}
	// Trailing garbage is rejected.
	if _, err := decodeEvent(append(p1, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := decodeEvent(nil); err == nil {
		t.Error("empty payload accepted")
	}
}
