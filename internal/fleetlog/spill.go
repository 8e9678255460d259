package fleetlog

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"path/filepath"
	"slices"

	"parbor/internal/faultfs"
)

// The classifier's working set is a *set* of fixed-size sort keys:
// one per distinct (module, cell, epoch) observation and one per
// distinct (module, epoch) pair. Sets make the pipeline a pure
// function of the event set — replayed duplicate events (a daemon
// killed after logging an epoch but before persisting its checkpoint
// re-runs and re-logs the identical epoch) deduplicate away, and
// event order cannot matter.
//
// keyBytes packs (module uint32, chip uint16, bank uint16, row
// uint32, col uint32, epoch uint32) big-endian, so bytewise key order
// equals (module, chip, bank, row, col, epoch) tuple order and the
// merged stream arrives pre-grouped for the classifier's fold. All
// packed fields are validated non-negative first.
const keyBytes = 20

type spillKey [keyBytes]byte

// spillSet is a deduplicating set of spillKeys with bounded memory:
// at most limit keys are held in memory; beyond that they are sorted,
// deduplicated and flushed to a run file, and mergeSets streams the
// union of all runs plus the residue of any number of sets in sorted
// order. Disk usage is O(total distinct-ish keys); memory stays
// O(limit + runs).
type spillSet struct {
	fsys   faultfs.FS
	limit  int
	dir    string
	prefix string
	// mem is a flat buffer of the keys added since the last spill,
	// duplicates included: spill and merge sort and compact it in
	// place. It starts at initialKeys and, the first time it fills,
	// grows once straight to limit, which every later run reuses:
	// small streams stay small, and a large one leaves no chain of
	// doubled buffers behind as garbage.
	mem  []spillKey
	runs []string
	// sealed marks mem as sorted and compacted for the final merge;
	// nothing is added after that.
	sealed bool
	// spilled counts keys written to runs (with cross-run duplicates),
	// for diagnostics.
	spilled int
}

func newSpillSet(fsys faultfs.FS, limit int, dir, prefix string) *spillSet {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	return &spillSet{
		fsys:   fsys,
		limit:  limit,
		dir:    dir,
		prefix: prefix,
		mem:    make([]spillKey, 0, min(limit, initialKeys)),
	}
}

// initialKeys is the spill buffer's starting capacity, in keys.
const initialKeys = 1 << 16

// add inserts a key, spilling the in-memory keys to a run file when
// the budget is reached. Duplicates count against the budget until
// the spill removes them, which changes how many runs are written but
// never the merged set.
func (s *spillSet) add(k spillKey) error {
	if len(s.mem) == cap(s.mem) && cap(s.mem) < s.limit {
		grown := make([]spillKey, len(s.mem), s.limit)
		copy(grown, s.mem)
		s.mem = grown
	}
	s.mem = append(s.mem, k)
	if len(s.mem) >= s.limit {
		return s.spill()
	}
	return nil
}

// spill sorts the in-memory keys and writes them as one run.
func (s *spillSet) spill() error {
	if len(s.mem) == 0 {
		return nil
	}
	keys := s.sortedMem()
	// The spill dir is scratch space the caller merely names (e.g.
	// parborlog -spill); create it on first use rather than demanding
	// it exists.
	if err := s.fsys.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("fleetlog: creating spill dir: %w", err)
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%06d.run", s.prefix, len(s.runs)))
	f, err := s.fsys.Create(path)
	if err != nil {
		return fmt.Errorf("fleetlog: creating spill run: %w", err)
	}
	if err := writeRun(f, keys); err != nil {
		// A partial run never reaches s.runs, so cleanup would not
		// find it: remove it here, or a caller-named spill dir keeps it.
		//parbor:droperr best-effort removal of a scratch run that already failed; the write error is what the caller needs
		s.fsys.Remove(path)
		return err
	}
	s.runs = append(s.runs, path)
	s.spilled += len(keys)
	s.mem = s.mem[:0]
	return nil
}

// writeRun writes keys to f and closes it, on every path.
func writeRun(f faultfs.File, keys []spillKey) error {
	bw := bufio.NewWriterSize(f, 1<<16)
	// Slice the keys in place: ranging by value would copy each key
	// into a variable that escapes through the io.Writer call.
	for i := range keys {
		if _, err := bw.Write(keys[i][:]); err != nil {
			f.Close()
			return fmt.Errorf("fleetlog: writing spill run: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("fleetlog: flushing spill run: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fleetlog: closing spill run: %w", err)
	}
	return nil
}

// sortedMem sorts and deduplicates the in-memory keys in place and
// returns them.
func (s *spillSet) sortedMem() []spillKey {
	radixSort(s.mem, 0)
	s.mem = slices.Compact(s.mem)
	return s.mem
}

// seal sorts and compacts the in-memory residue for the final merge.
// A scan worker seals its sets before it returns, so the sorts run on
// every worker rather than serially inside the merge; mergeSets seals
// whatever is still unsealed.
func (s *spillSet) seal() {
	if !s.sealed {
		s.sortedMem()
		s.sealed = true
	}
}

// radixCutoff is the bucket size at or below which radixSort hands
// over to insertion sort: a 256-way counting pass over a few dozen
// keys costs more than comparing them.
const radixCutoff = 32

// radixSort sorts keys, which all share their first depth bytes, into
// bytewise order: an in-place MSD ("American flag") radix sort, one
// key byte per level. Each level first skips the bytes every key
// shares (the packed fields' constant high bytes and zero banks cost
// one pass in all, not one pass each), then counts the keys per value
// of the first byte that differs, permutes them into their buckets by
// cycle-chasing swaps, and recurses into every bucket one byte deeper.
// Nothing is allocated: the buckets live on the stack, and an LSD
// sort's second key-count-sized buffer is exactly what this avoids.
func radixSort(keys []spillKey, depth int) {
	if len(keys) <= radixCutoff {
		insertionSort(keys, depth)
		return
	}
	depth = sharedPrefix(keys)
	if depth == keyBytes {
		return // all keys equal
	}
	var next, end [256]int
	for i := range keys {
		end[keys[i][depth]]++
	}
	off := 0
	for b := range end {
		next[b] = off
		off += end[b]
		end[b] = off
	}
	for b := range next {
		for next[b] < end[b] {
			k := keys[next[b]]
			for d := int(k[depth]); d != b; d = int(k[depth]) {
				k, keys[next[d]] = keys[next[d]], k
				next[d]++
			}
			keys[next[b]] = k
			next[b]++
		}
	}
	start := 0
	for _, stop := range end {
		if stop-start > 1 {
			radixSort(keys[start:stop], depth+1)
		}
		start = stop
	}
}

// sharedPrefix returns how many leading bytes every key shares with
// keys[0]: the big-endian XOR of each key against the first, ORed
// together, has its first set bit in the first byte that differs.
func sharedPrefix(keys []spillKey) int {
	be := binary.BigEndian
	f := &keys[0]
	f0, f1, f2 := be.Uint64(f[0:8]), be.Uint64(f[8:16]), be.Uint32(f[16:20])
	var d0, d1 uint64
	var d2 uint32
	for i := range keys {
		k := &keys[i]
		d0 |= be.Uint64(k[0:8]) ^ f0
		d1 |= be.Uint64(k[8:16]) ^ f1
		d2 |= be.Uint32(k[16:20]) ^ f2
	}
	switch {
	case d0 != 0:
		return bits.LeadingZeros64(d0) / 8
	case d1 != 0:
		return 8 + bits.LeadingZeros64(d1)/8
	case d2 != 0:
		return 16 + bits.LeadingZeros32(d2)/8
	}
	return keyBytes
}

// insertionSort sorts keys that share their first depth bytes.
func insertionSort(keys []spillKey, depth int) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j][depth:], keys[j-1][depth:]) < 0; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// runCursor is one merge source: a spilled run file or the in-memory
// residue.
type runCursor struct {
	br  *bufio.Reader // nil for the in-memory residue
	f   faultfs.File
	mem []spillKey
	pos int
	cur spillKey
	ok  bool
}

func (c *runCursor) advance() error {
	if c.br == nil {
		if c.pos >= len(c.mem) {
			c.ok = false
			return nil
		}
		c.cur = c.mem[c.pos]
		c.pos++
		return nil
	}
	_, err := io.ReadFull(c.br, c.cur[:])
	if err == io.EOF {
		c.ok = false
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleetlog: reading spill run: %w", err)
	}
	return nil
}

// cursorHeap is a min-heap of merge sources by current key.
type cursorHeap []*runCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	return bytes.Compare(h[i].cur[:], h[j].cur[:]) < 0
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*runCursor)) }
func (h *cursorHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeSets streams the distinct keys of the union of sets in sorted
// order through yield: one k-way heap merge over every set's run files
// and sealed residue, with equal keys across sources collapsed. One
// set is the serial classifier's case; a parallel scan passes every
// worker's. The sets are consumed, and their run files are removed
// however the merge ends.
func mergeSets(sets []*spillSet, yield func(spillKey) error) error {
	var h cursorHeap
	defer func() {
		for _, c := range h {
			if c.f != nil {
				//parbor:droperr read-side close of a scratch spill run removed by the cleanup below
				c.f.Close()
			}
		}
		for _, s := range sets {
			s.cleanup()
		}
	}()
	for _, s := range sets {
		for _, path := range s.runs {
			f, err := s.fsys.Open(path)
			if err != nil {
				return fmt.Errorf("fleetlog: opening spill run: %w", err)
			}
			c := &runCursor{br: bufio.NewReaderSize(f, 1<<16), f: f, ok: true}
			h = append(h, c)
			if err := c.advance(); err != nil {
				return err
			}
			if !c.ok {
				//parbor:droperr read-side close of an empty scratch spill run; nothing was or will be read from it
				f.Close()
				h = h[:len(h)-1]
			}
		}
		s.seal()
		if len(s.mem) > 0 {
			c := &runCursor{mem: s.mem, ok: true}
			c.advance()
			h = append(h, c)
		}
		s.mem = nil
	}
	heap.Init(&h)
	var last spillKey
	haveLast := false
	for len(h) > 0 {
		c := h[0]
		k := c.cur
		if err := c.advance(); err != nil {
			return err
		}
		if c.ok {
			heap.Fix(&h, 0)
		} else {
			if c.f != nil {
				//parbor:droperr read-side close of a fully drained scratch spill run; its bytes are already merged
				c.f.Close()
				c.f = nil
			}
			heap.Pop(&h)
		}
		if haveLast && k == last {
			continue // duplicate across sources
		}
		last, haveLast = k, true
		if err := yield(k); err != nil {
			return err
		}
	}
	return nil
}

// cleanup removes any remaining run files.
func (s *spillSet) cleanup() {
	for _, path := range s.runs {
		s.fsys.Remove(path)
	}
	s.runs = nil
}
