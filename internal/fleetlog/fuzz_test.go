package fleetlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"parbor/internal/faultfs"
)

// fuzzSeedPayloads returns canonical encodings of the test corpus, so
// the fuzzer starts from valid payloads and mutates outward.
func fuzzSeedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, ev := range testEvents() {
		p, err := appendEvent(nil, ev)
		if err != nil {
			tb.Fatalf("seeding: %v", err)
		}
		seeds = append(seeds, p)
	}
	return seeds
}

// FuzzFleetlogCodec: any payload decodeEvent accepts must re-encode to
// the identical bytes (canonical order is part of the format), decode
// again to a deeply equal event, and never make the decoder allocate
// beyond what the payload itself can hold — a hostile header claiming
// 2^40 failures in a 10-byte payload must be rejected, not trusted.
func FuzzFleetlogCodec(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 'm', 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge claimed count
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := decodeEvent(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		// Accepted payloads are canonical: re-encoding is byte-identical.
		re, err := appendEvent(nil, ev)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("re-encode drifted:\nin  %x\nout %x", data, re)
		}
		ev2, err := decodeEvent(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("decode/encode/decode drifted:\n%+v\nvs\n%+v", ev, ev2)
		}
		// The decoder's failure allocation is bounded by the payload:
		// four varint bytes minimum per failure.
		if len(ev.Fails) > len(data)/4 {
			t.Fatalf("decoder allocated %d failures from a %d-byte payload", len(ev.Fails), len(data))
		}
	})
}

// FuzzFleetlogReader: arbitrary bytes dropped into a segment file must
// never panic the iterator — every outcome is a clean stream end, a
// recorded truncation, or a corruption error.
func FuzzFleetlogReader(f *testing.F) {
	// Seed with a real segment (whole, then mangled), plus edge shapes.
	dir := f.TempDir()
	w, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range testEvents() {
		if err := w.Append(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(append([]byte{}, segHeader()...))
	f.Add([]byte{})
	f.Add([]byte("PBFL\x01\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		it, err := OpenIter(faultfs.OS{}, dir)
		if err != nil {
			t.Fatalf("OpenIter on a present directory: %v", err)
		}
		defer it.Close()
		for {
			_, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // hard corruption is a legitimate verdict
			}
		}
		// A segment cannot yield both a full clean read and a
		// truncation.
		if len(it.Truncations()) > 1 {
			t.Fatalf("single segment reported %d truncations", len(it.Truncations()))
		}
	})
}

// FuzzFleetlogSummary: the run decoders behind segment summaries and
// spill runs, checkRun at open and then a merge of every module, are
// strict and never panic, whether the merge reads the run in memory or
// through a window, as it reads a summary file. Each input's CRC is
// recomputed, so that mutations reach the blocks rather than stop at
// the CRC. Whatever both accept re-encodes, through the classifier's
// run builder, to the identical bytes, so no two accepted runs mean the
// same keys.
func FuzzFleetlogSummary(f *testing.F) {
	sum := summaryOf(f)
	f.Add(sum)
	f.Add(sum[:len(sum)/2])
	f.Add([]byte{})
	f.Add(append([]byte(runMagic), runVersion))
	f.Add(append([]byte(runMagic), runVersion, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = slices.Clone(data)
		if body := len(data) - 4; body >= 0 {
			binary.LittleEndian.PutUint32(data[body:], crc32.ChecksumIEEE(data[:body]))
		}
		h, err := checkRun(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		var errs [2]error
		for k, ra := range []io.ReaderAt{memReaderAt(data), bytes.NewReader(data)} {
			runs := []*run{{hdr: h, ra: ra}}
			names := numberModules(runs)
			_, errs[k] = mergeRange(t.Context(), runs, names, modRange{0, len(names)}, 0)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("in memory the merge gives %v, through a window %v", errs[0], errs[1])
		}
		if errs[0] != nil {
			return
		}
		if again := reencodeRun(data, h); !bytes.Equal(again, data) {
			t.Fatalf("accepted run re-encodes differently:\nin  %x\nout %x", data, again)
		}
	})
}

// FuzzStaleSummary: a summary never changes a rollup. The bytes of a
// summarized segment, the tail included, are mutated (a bit flipped,
// the file cut short, or a run of bytes rewritten in place, keeping
// its length), and Analyze over the log with the now-stale summary
// must give what Analyze gives over the same log with its summaries
// removed: the same rollup, or the same error.
func FuzzStaleSummary(f *testing.F) {
	base, segs := writeSegmented(f, genEvents(rand.New(rand.NewSource(41)), 4, 80), 256)
	if len(segs) < 4 {
		f.Fatalf("log has %d segments, want at least 4", len(segs))
	}
	summarize(f, base)
	for op := range uint8(3) {
		f.Add(op, uint8(1), uint16(40), []byte{0x5a})
		f.Add(op, uint8(2), uint16(7), []byte("PBFL"))
	}
	f.Add(uint8(2), uint8(0), uint16(300), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, op, seg uint8, pos uint16, data []byte) {
		dir := copyLog(t, base)
		path := filepath.Join(dir, segs[int(seg)%len(segs)])
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := int(pos) % len(b)
		switch op % 3 {
		case 0:
			b[at] ^= 1 << (op / 3 % 8)
		case 1:
			b = b[:at]
		case 2:
			copy(b[at:], data)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		bare := copyLog(t, dir)
		for _, s := range sumFiles(t, bare) {
			if err := os.Remove(filepath.Join(bare, s)); err != nil {
				t.Fatal(err)
			}
		}
		got, gotErr := Analyze(t.Context(), dir, ClassifierConfig{SpillDir: t.TempDir()})
		want, wantErr := Analyze(t.Context(), bare, ClassifierConfig{SpillDir: t.TempDir()})
		switch {
		case gotErr != nil || wantErr != nil:
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("with the stale summary: %v; without summaries: %v", gotErr, wantErr)
			}
		case marshal(t, got) != marshal(t, want):
			t.Fatalf("with the stale summary:\n%s\nwithout summaries:\n%s", marshal(t, got), marshal(t, want))
		}
	})
}
