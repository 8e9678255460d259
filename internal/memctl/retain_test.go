package memctl

import (
	"context"
	"slices"
	"sync"
	"testing"
)

// TestHostKeepsNoPassBuffer pins the data contract of Pass, Probe and
// FullPass: a buffer a pass writes from (the caller's data, or the
// host's buf a RowSource filled) is copied into the chips and never
// retained past the pass. Each pass writes a pattern on a clean module,
// the buffers it wrote from are then overwritten, and every row must
// still read back the pattern, serially and sharded.
func TestHostKeepsNoPassBuffer(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		host, err := NewHostWithConfig(cleanModule(t), HostConfig{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		words := host.Geometry().Words()
		want := filledRow(words, 0xdeadbeefcafef00d)
		overwrite := func(bufs ...[]uint64) {
			for _, b := range bufs {
				for i := range b {
					b[i] = ^want[i]
				}
			}
		}
		readBack := func(op string, rows []Row) {
			t.Helper()
			got := make([]uint64, words)
			for _, r := range rows {
				if err := host.ReadRowInto(ctx, r, got); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d %s: row %+v reads back the buffer as overwritten after the pass", workers, op, r)
				}
			}
		}

		rows := []Row{{Chip: 0, Bank: 0, Row: 3}, {Chip: 1, Bank: 0, Row: 5}}
		data := [][]uint64{slices.Clone(want), slices.Clone(want)}
		if _, err := host.Pass(ctx, rows, data, 0); err != nil {
			t.Fatal(err)
		}
		overwrite(data...)
		readBack("Pass", rows)

		cells := []BitAddr{{Chip: 0, Bank: 0, Row: 7, Col: 9}, {Chip: 1, Bank: 0, Row: 11, Col: 700}}
		data = [][]uint64{slices.Clone(want), slices.Clone(want)}
		if _, err := host.Probe(ctx, cells, data, 0); err != nil {
			t.Fatal(err)
		}
		overwrite(data...)
		readBack("Probe", []Row{{Chip: 0, Bank: 0, Row: 7}, {Chip: 1, Bank: 0, Row: 11}})

		var mu sync.Mutex
		var filled [][]uint64
		fill := func(_ Row, buf []uint64) []uint64 {
			copy(buf, want)
			mu.Lock()
			filled = append(filled, buf)
			mu.Unlock()
			return buf
		}
		if _, err := host.FullPass(ctx, fill, 0); err != nil {
			t.Fatal(err)
		}
		overwrite(filled...)
		all, _ := allRows(host)
		readBack("FullPass", all)
	}
}
