package fleetlog

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parbor/internal/faultfs"
)

// fuzzSeedPayloads returns canonical encodings of the test corpus, so
// the fuzzer starts from valid payloads and mutates outward.
func fuzzSeedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, ev := range testEvents() {
		p, err := AppendEvent(nil, ev)
		if err != nil {
			tb.Fatalf("seeding: %v", err)
		}
		seeds = append(seeds, p)
	}
	return seeds
}

// FuzzFleetlogCodec: any payload DecodeEvent accepts must re-encode to
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
		ev, err := DecodeEvent(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		// Accepted payloads are canonical: re-encoding is byte-identical.
		re, err := AppendEvent(nil, ev)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("re-encode drifted:\nin  %x\nout %x", data, re)
		}
		ev2, err := DecodeEvent(re)
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
		events := 0
		for {
			_, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // hard corruption is a legitimate verdict
			}
			events++
		}
		// A drained stream's bookkeeping must agree with what it
		// returned, and a segment cannot yield both a full clean read
		// and a truncation.
		if it.Events() != events {
			t.Fatalf("iterator counted %d events, returned %d", it.Events(), events)
		}
		if len(it.Truncations()) > 1 {
			t.Fatalf("single segment reported %d truncations", len(it.Truncations()))
		}
	})
}
