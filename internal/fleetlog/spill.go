package fleetlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
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
// equals (module, chip, bank, row, col, epoch) tuple order: a sorted
// buffer arrives grouped by module and cell, as the run format
// (summary.go) lists it. All packed fields are validated non-negative
// first.
const keyBytes = 20

type spillKey [keyBytes]byte

// spillSet is a flat buffer of spillKeys, duplicates included, that
// sortedMem sorts and compacts in place: a classifier shard's
// runBuilder keeps one for observation keys and one for epoch keys.
// add reports the set full at limit keys, and the shard then spills
// its builder as a run. The buffer starts at initialKeys and, the
// first time it fills, grows once straight to limit, which every later
// run reuses: small streams stay small, and a large one leaves no
// chain of doubled buffers behind as garbage.
type spillSet struct {
	limit int
	mem   []spillKey
}

func newSpillSet(limit int) spillSet {
	return spillSet{limit: limit, mem: make([]spillKey, 0, min(limit, initialKeys))}
}

// initialKeys is the spill buffer's starting capacity, in keys.
const initialKeys = 1 << 16

// add appends a key and reports whether the set is now full.
// Duplicates count against the limit until a sort removes them, which
// changes how many runs are spilled but never the merged set.
func (s *spillSet) add(k spillKey) bool {
	if len(s.mem) == cap(s.mem) && cap(s.mem) < s.limit {
		grown := make([]spillKey, len(s.mem), s.limit)
		copy(grown, s.mem)
		s.mem = grown
	}
	s.mem = append(s.mem, k)
	return len(s.mem) >= s.limit
}

// sortedMem sorts and deduplicates the in-memory keys in place and
// returns them.
func (s *spillSet) sortedMem() []spillKey {
	radixSort(s.mem, 0)
	s.mem = slices.Compact(s.mem)
	return s.mem
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

// runBuilder is a classifier shard's key store: each event's epoch key
// and observation keys, packed with a builder-local module number into
// two flat spill sets under the shard's key budget. appendRun sorts
// them into a run.
type runBuilder struct {
	ids    map[string]uint32
	names  []string
	obs    spillSet
	epochs spillSet
	enc    runEncoder
	// appendRun scratch, reused across runs.
	order []uint32
	rank  []uint32
	eps   []uint32
}

// newRunBuilder returns a builder whose spill sets hold limit keys
// each.
func newRunBuilder(limit int) *runBuilder {
	return &runBuilder{
		ids:    make(map[string]uint32),
		obs:    newSpillSet(limit),
		epochs: newSpillSet(limit),
	}
}

// modID returns name's builder-local number, assigning the next one on
// first sight.
func (b *runBuilder) modID(name string) (uint32, error) {
	if id, ok := b.ids[name]; ok {
		return id, nil
	}
	if len(b.names) >= math.MaxUint32 {
		return 0, fmt.Errorf("fleetlog: module population overflow")
	}
	id := uint32(len(b.names))
	b.ids[name] = id
	b.names = append(b.names, name)
	return id, nil
}

// empty reports whether no key is buffered.
func (b *runBuilder) empty() bool { return len(b.obs.mem) == 0 && len(b.epochs.mem) == 0 }

// appendRun sorts the buffered keys and appends them to dst as one
// run, then empties the spill sets. The module table survives: a
// module with no buffered key is left out of the run, so the shard's
// module numbers stay valid across its spills.
func (b *runBuilder) appendRun(dst []byte, meta runMeta) []byte {
	be := binary.BigEndian
	// Renumber the modules that have keys by name, so that the key
	// sort orders them as the run lists them.
	const absent = math.MaxUint32
	b.rank = slices.Grow(b.rank[:0], len(b.names))[:len(b.names)]
	for i := range b.rank {
		b.rank[i] = absent
	}
	for _, keys := range [][]spillKey{b.epochs.mem, b.obs.mem} {
		for i := range keys {
			b.rank[be.Uint32(keys[i][0:4])] = 0
		}
	}
	b.order = b.order[:0]
	for id, r := range b.rank {
		if r != absent {
			b.order = append(b.order, uint32(id))
		}
	}
	sort.Slice(b.order, func(i, j int) bool { return b.names[b.order[i]] < b.names[b.order[j]] })
	for r, id := range b.order {
		b.rank[id] = uint32(r)
	}
	for _, keys := range [][]spillKey{b.epochs.mem, b.obs.mem} {
		for i := range keys {
			be.PutUint32(keys[i][0:4], b.rank[be.Uint32(keys[i][0:4])])
		}
	}
	ek, ok := b.epochs.sortedMem(), b.obs.sortedMem()
	b.enc.reset()
	for r, id := range b.order {
		b.eps = b.eps[:0]
		for ; len(ek) > 0 && be.Uint32(ek[0][0:4]) == uint32(r); ek = ek[1:] {
			b.eps = append(b.eps, be.Uint32(ek[0][4:8]))
		}
		b.enc.startModule(b.names[id], b.eps)
		for len(ok) > 0 && be.Uint32(ok[0][0:4]) == uint32(r) {
			k := &ok[0]
			b.eps = b.eps[:0]
			for ; len(ok) > 0 && [16]byte(ok[0][:16]) == [16]byte(k[:16]); ok = ok[1:] {
				b.eps = append(b.eps, be.Uint32(ok[0][16:20]))
			}
			b.enc.cell(cell{
				chip: int64(be.Uint16(k[4:6])),
				bank: int64(be.Uint16(k[6:8])),
				row:  int64(be.Uint32(k[8:12])),
				col:  int64(be.Uint32(k[12:16])),
			}, b.eps)
		}
		b.enc.endModule()
	}
	b.epochs.mem = b.epochs.mem[:0]
	b.obs.mem = b.obs.mem[:0]
	return b.enc.appendRun(dst, meta)
}
