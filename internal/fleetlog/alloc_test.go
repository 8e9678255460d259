package fleetlog

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"parbor/internal/faultfs"
	"parbor/internal/memctl"
)

// TestObserveAllocBudget: once a classifier has seen a module, folding
// another of its events allocates nothing — keys go into the flat
// spill buffers, which this budget sizes at creation, and the module
// name is interned.
func TestObserveAllocBudget(t *testing.T) {
	c := newSerialClassifier(ClassifierConfig{MaxKeys: 1 << 16, SpillDir: t.TempDir()})
	defer c.close()
	ev := Event{Module: "mod-0001"}
	for i := 0; i < 10; i++ {
		ev.Fails = append(ev.Fails, memctl.BitAddr{Chip: int16(i % 2), Row: int32(i), Col: int32(7 * i)})
	}
	observe := func() {
		ev.Epoch++
		if err := c.observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	observe()
	allocs := testing.AllocsPerRun(200, observe)
	if allocs != 0 {
		t.Fatalf("warm Observe allocated %.2f objects per event, want 0", allocs)
	}
}

// TestNextIntoReusesEvent: decoding a stream into one event yields the
// events Next would, and once the event's storage has grown to the
// largest failure list, decoding allocates nothing per event.
func TestNextIntoReusesEvent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for i := 0; i < 300; i++ {
		ev := Event{Module: "m", Epoch: i + 1}
		for j := 0; j < i%4; j++ {
			ev.Fails = append(ev.Fails, memctl.BitAddr{Row: int32(j), Col: int32(i)})
		}
		want = append(want, ev)
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	it, err := OpenIter(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var ev Event
	next := 0
	check := func() {
		if err := it.nextInto(&ev); err != nil {
			t.Fatalf("event %d: %v", next, err)
		}
		w := want[next]
		next++
		if ev.Module != w.Module || ev.Epoch != w.Epoch || !slices.Equal(ev.Fails, w.Fails) {
			t.Fatalf("event %d: got %+v, want %+v", next-1, ev, w)
		}
	}
	for next < 20 {
		check()
	}
	if allocs := testing.AllocsPerRun(200, check); allocs != 0 {
		t.Fatalf("warm nextInto allocated %.2f objects per event, want 0", allocs)
	}
	for next < len(want) {
		check()
	}
	if err := it.nextInto(&ev); err != io.EOF {
		t.Fatalf("after the last event: %v, want io.EOF", err)
	}
}

// TestSpillBufferGrowsOnce: the in-memory key buffer starts small,
// grows once straight to the budget when it first fills, and is then
// reused by every run, while the merge still counts each distinct key
// once.
func TestSpillBufferGrowsOnce(t *testing.T) {
	const limit = 2*initialKeys + 1000
	c := newSerialClassifier(ClassifierConfig{MaxKeys: limit, SpillDir: t.TempDir()})
	defer c.close()
	s := &c.shards[0].b.epochs
	if cap(s.mem) != initialKeys {
		t.Fatalf("fresh buffer holds %d keys, want %d", cap(s.mem), initialKeys)
	}
	const distinct = limit + limit/2
	var base *spillKey
	for i := 0; i < 2*distinct; i++ {
		// Every epoch key twice, far apart, so duplicates straddle
		// spills.
		v := uint32(i*7919) % distinct
		if err := c.observe(Event{Module: "m", Epoch: int(v)}); err != nil {
			t.Fatal(err)
		}
		if i == initialKeys {
			if cap(s.mem) != limit {
				t.Fatalf("after the first fill the buffer holds %d keys, want %d", cap(s.mem), limit)
			}
			base = &s.mem[:1][0]
		}
		if base != nil && len(s.mem) > 0 && &s.mem[:1][0] != base {
			t.Fatalf("key %d: the buffer was reallocated after growing to the budget", i)
		}
	}
	if runs := len(c.shards[0].runs); runs < 2 {
		t.Fatalf("%d runs spilled; the reuse check is vacuous", runs)
	}
	r, err := c.finish(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs != distinct {
		t.Fatalf("merge counted %d distinct epochs, want %d", r.Epochs, distinct)
	}
}

// TestSpillSortAllocBudget: sorting and deduplicating a spill buffer
// allocates nothing. The radix sort permutes the keys in place with
// its buckets on the stack; a sort that needed a second key-sized
// buffer would pay it on every spill.
func TestSpillSortAllocBudget(t *testing.T) {
	keys := analyticsKeys(1 << 16)
	s := &spillSet{mem: make([]spillKey, 0, len(keys))}
	allocs := testing.AllocsPerRun(5, func() {
		s.mem = append(s.mem[:0], keys...)
		s.sortedMem()
	})
	if allocs != 0 {
		t.Fatalf("sortedMem allocated %.2f objects per 64k-key sort, want 0", allocs)
	}
}

// TestSegmentCRCAllocBudget: the bulk check of a summarized segment
// reads the file through the scan worker's reused buffer and hashes it
// in place, so once that buffer is warm, checking a segment allocates
// nothing beyond opening the file, however many chunks the segment
// takes. The CRC it computes is the one the decoding scan recorded in
// the summary.
func TestSegmentCRCAllocBudget(t *testing.T) {
	dir, segs := writeSegmented(t, genEvents(rand.New(rand.NewSource(47)), 6, 2000), 32<<10)
	if len(segs) < 2 {
		t.Fatalf("log has %d segments, want at least 2", len(segs))
	}
	summarize(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, sumName(segSeq(segs[0]))))
	if err != nil {
		t.Fatal(err)
	}
	h, err := checkRun(data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4<<10)
	if h.meta.segBytes < 4*uint64(len(buf)) {
		t.Fatalf("segment of %d bytes fits in %d chunks; the check is vacuous", h.meta.segBytes, h.meta.segBytes/uint64(len(buf)))
	}
	check := func() {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		crc, err := fileCRC(t.Context(), f, int64(h.meta.segBytes), buf)
		if err != nil || crc != h.meta.crc {
			t.Fatalf("fileCRC = %#08x, %v; the summary recorded %#08x", crc, err, h.meta.crc)
		}
	}
	check()
	if allocs := testing.AllocsPerRun(50, check); allocs != 0 {
		t.Fatalf("a warm bulk check allocated %.2f objects per segment, want 0", allocs)
	}
}
