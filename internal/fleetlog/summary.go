package fleetlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// A run is one sorted batch of classifier keys in a compact, module-
// partitioned file format. Two things are runs:
//
//   - a segment summary, <seq>.sum beside <seq>.seg, which Analyze
//     writes the first time it decodes the segment untorn: the whole
//     segment's keys, plus the segment's byte length, record count and
//     the CRC-32C of its whole file, so that a later Analyze can tell
//     whether the summary still describes the segment it sits beside;
//   - a spill run, which a classifier's scan worker appends to its one
//     spill file when its key budget fills (the meta fields are zero).
//
// Layout (every integer a minimal uvarint unless noted):
//
//	"PBFS" | version (1 byte)
//	segment bytes | records | segment CRC-32C (4 bytes little-endian)
//	module count
//	per module, in ascending name order:
//	    name length | name | epochs | epoch bytes | cells | cell bytes
//	epoch run: each module's epoch block, in the same order
//	obs run:   each module's cell block, in the same order
//	CRC-32/IEEE of everything before it (4 bytes little-endian)
//
//	epoch block = the module's distinct epochs, ascending: the first
//	              as is, each later one as (epoch - previous - 1)
//	cell block  = the module's distinct failing cells, ascending by
//	              (chip, bank, row, col), each as
//	                position: four uvarints against the previous cell
//	                          (the first against (0, 0, 0, -1)):
//	                          dchip > 0 then bank, row, col as is; or
//	                          0, dbank > 0 then row, col as is; or
//	                          0, 0, drow > 0 then col as is; or
//	                          0, 0, 0, dcol - 1
//	                epochs - 1, then the cell's distinct epochs,
//	                          encoded as an epoch block
//
// A module's keys are thus one contiguous block in each run, found by
// the prefix sums of the byte lengths in the header: a merge worker
// reads just its module range of every run. The format is canonical:
// checkRun, which checks the header and the CRC at open, and then
// mergeRange, which decodes every block once, accept exactly what
// runEncoder writes, so decode then encode gives back the same bytes
// (FuzzFleetlogSummary).
//
// The segment CRC is CRC-32C (Castagnoli), not the IEEE polynomial of
// the record checksums. Every record ends with the IEEE CRC of its own
// payload, and CRCs are linear: an IEEE register that reads a payload
// and then that payload's IEEE CRC ends in a state that depends only
// on its state before and the payload's length. So the whole-file IEEE
// CRC of two segments with the same framing is the same whatever their
// payloads. Under another polynomial the pairs do not cancel.
//
// A summary of an earlier version fails the version check, and is
// rebuilt as a missing one is.
const (
	runMagic   = "PBFS"
	runVersion = 2
	// sumSuffix names segment summaries: 00000001.sum summarizes
	// 00000001.seg.
	sumSuffix = ".sum"
	// minCellBytes is the smallest encoded cell: four position
	// uvarints, the epoch count and one epoch.
	minCellBytes = 6
)

// castagnoli is the CRC-32C table a summary's segment CRC is computed
// with; crc32 runs it on the CPU's CRC instructions where it has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sumName formats a segment sequence number as its summary filename.
func sumName(seq int) string { return fmt.Sprintf("%08d%s", seq, sumSuffix) }

// runMeta identifies the segment a summary describes; spill runs carry
// the zero value.
type runMeta struct {
	segBytes uint64
	records  uint64
	crc      uint32 // CRC-32C of the segment's whole file
}

// runModule is one module's entry in a run header.
type runModule struct {
	name          string
	epochs, cells int
	// epochAt and cellAt are the file offsets of the module's blocks;
	// the next module's offsets (or the run ends) bound them.
	epochAt, cellAt int64
}

// runHeader is a decoded run header: what a merge needs to find any
// module's blocks without reading the others.
type runHeader struct {
	meta runMeta
	mods []runModule
	// epochEnd and cellEnd end the epoch and obs runs.
	epochEnd, cellEnd int64
}

// blockEnds returns the end offsets of module i's epoch and cell
// blocks.
func (h *runHeader) blockEnds(i int) (epochEnd, cellEnd int64) {
	if i+1 < len(h.mods) {
		return h.mods[i+1].epochAt, h.mods[i+1].cellAt
	}
	return h.epochEnd, h.cellEnd
}

// cell is a failing cell's coordinates, widened so that the position
// codec's (0, 0, 0, -1) start needs no special case.
type cell struct{ chip, bank, row, col int64 }

// cellStart is the position the first cell of a block is coded
// against.
var cellStart = cell{col: -1}

func (a cell) less(b cell) bool {
	if a.chip != b.chip {
		return a.chip < b.chip
	}
	if a.bank != b.bank {
		return a.bank < b.bank
	}
	if a.row != b.row {
		return a.row < b.row
	}
	return a.col < b.col
}

// appendCell appends c's position code against prev (c > prev).
func appendCell(dst []byte, prev, c cell) []byte {
	switch {
	case c.chip != prev.chip:
		dst = appendUvarint(dst, uint64(c.chip-prev.chip))
		dst = appendUvarint(dst, uint64(c.bank))
	case c.bank != prev.bank:
		dst = append(dst, 0)
		dst = appendUvarint(dst, uint64(c.bank-prev.bank))
	case c.row != prev.row:
		dst = append(dst, 0, 0)
		dst = appendUvarint(dst, uint64(c.row-prev.row))
		return appendUvarint(dst, uint64(c.col))
	default:
		dst = append(dst, 0, 0, 0)
		return appendUvarint(dst, uint64(c.col-prev.col-1))
	}
	dst = appendUvarint(dst, uint64(c.row))
	return appendUvarint(dst, uint64(c.col))
}

// appendUvarint is binary.AppendUvarint with the one-byte case
// inlined: most deltas in a run are small.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

// runEncoder writes one run: reset starts it; startModule, cell and
// endModule add each module's keys, modules in name order and cells in
// order; finish assembles the header and the CRC around the two runs.
// Its buffers are reused across runs.
type runEncoder struct {
	names []string
	per   []blockSizes
	hdr   []byte
	eRun  []byte
	cRun  []byte
	crc   [4]byte
	// The module being encoded.
	cur    blockSizes
	cStart int
	prev   cell
}

// blockSizes is one module's header entry after its name.
type blockSizes struct{ epochs, eBytes, cells, cBytes int }

// reset starts a new run.
func (e *runEncoder) reset() {
	clear(e.names) // release the last run's module names
	e.names, e.per, e.hdr, e.eRun, e.cRun = e.names[:0], e.per[:0], e.hdr[:0], e.eRun[:0], e.cRun[:0]
}

// startModule begins the next module's blocks with its epochs, sorted
// and distinct. A module must hold at least one key.
func (e *runEncoder) startModule(name string, epochs []uint32) {
	start := len(e.eRun)
	e.eRun = appendEpochs(e.eRun, epochs)
	e.cur = blockSizes{epochs: len(epochs), eBytes: len(e.eRun) - start}
	e.cStart, e.prev = len(e.cRun), cellStart
	e.names = append(e.names, name)
}

// cell adds the module's next cell, after the last, with its epochs,
// sorted and distinct.
func (e *runEncoder) cell(at cell, epochs []uint32) {
	e.cRun = appendCell(e.cRun, e.prev, at)
	e.cRun = appendUvarint(e.cRun, uint64(len(epochs)-1))
	e.cRun = appendEpochs(e.cRun, epochs)
	e.prev = at
	e.cur.cells++
}

// endModule closes the module's blocks.
func (e *runEncoder) endModule() {
	e.cur.cBytes = len(e.cRun) - e.cStart
	e.per = append(e.per, e.cur)
}

// appendEpochs appends an epoch block.
func appendEpochs(dst []byte, epochs []uint32) []byte {
	prev := int64(-1)
	for _, ep := range epochs {
		dst = appendUvarint(dst, uint64(int64(ep)-prev-1))
		prev = int64(ep)
	}
	return dst
}

// finish returns the run of the modules added since reset as its
// parts, in file order: header, epoch run, obs run, CRC. They stay
// valid until the next reset.
func (e *runEncoder) finish(meta runMeta) [4][]byte {
	h := append(e.hdr[:0], runMagic...)
	h = append(h, runVersion)
	h = binary.AppendUvarint(h, meta.segBytes)
	h = binary.AppendUvarint(h, meta.records)
	h = binary.LittleEndian.AppendUint32(h, meta.crc)
	h = binary.AppendUvarint(h, uint64(len(e.names)))
	for i, name := range e.names {
		bs := e.per[i]
		h = binary.AppendUvarint(h, uint64(len(name)))
		h = append(h, name...)
		h = binary.AppendUvarint(h, uint64(bs.epochs))
		h = binary.AppendUvarint(h, uint64(bs.eBytes))
		h = binary.AppendUvarint(h, uint64(bs.cells))
		h = binary.AppendUvarint(h, uint64(bs.cBytes))
	}
	e.hdr = h
	crc := crc32.Update(crc32.Update(crc32.ChecksumIEEE(h), crc32.IEEETable, e.eRun), crc32.IEEETable, e.cRun)
	binary.LittleEndian.PutUint32(e.crc[:], crc)
	return [4][]byte{e.hdr, e.eRun, e.cRun, e.crc[:]}
}

// header returns the decoded header of the run finish returned, as
// decodeRunHeader would give it, without decoding.
func (e *runEncoder) header(meta runMeta) *runHeader {
	h := &runHeader{meta: meta, mods: make([]runModule, len(e.names))}
	eAt, cAt := int64(len(e.hdr)), int64(len(e.hdr)+len(e.eRun))
	for i, bs := range e.per {
		h.mods[i] = runModule{name: e.names[i], epochs: bs.epochs, cells: bs.cells, epochAt: eAt, cellAt: cAt}
		eAt += int64(bs.eBytes)
		cAt += int64(bs.cBytes)
	}
	h.epochEnd, h.cellEnd = eAt, cAt
	return h
}

// appendRun appends the finished run to dst.
// dst grows once, to the run's size: a residue of a million keys
// encodes to megabytes, and growing by appends would leave a larger
// copy behind as garbage.
func (e *runEncoder) appendRun(dst []byte, meta runMeta) []byte {
	parts := e.finish(meta)
	dst = slices.Grow(dst, len(parts[0])+len(parts[1])+len(parts[2])+len(parts[3]))
	for _, part := range parts {
		dst = append(dst, part...)
	}
	return dst
}

// checkEvent rejects an event the classifier cannot key: an empty
// module, an epoch outside uint32, or a negative coordinate.
func checkEvent(ev *Event) error {
	if ev.Module == "" {
		return fmt.Errorf("fleetlog: event with empty module id")
	}
	if ev.Epoch < 0 || ev.Epoch > math.MaxUint32 {
		return fmt.Errorf("fleetlog: module %s: epoch %d out of range", ev.Module, ev.Epoch)
	}
	for _, a := range ev.Fails {
		if a.Chip < 0 || a.Bank < 0 || a.Row < 0 || a.Col < 0 {
			return fmt.Errorf("fleetlog: module %s: negative failure coordinate %+v", ev.Module, a)
		}
	}
	return nil
}

// errRun is the one error a malformed run decodes to: a run is a
// cache of its segment (or scratch), so what is wrong with it matters
// less than that it is not used.
var errRun = fmt.Errorf("fleetlog: malformed key run")

// decodeRunHeader strictly decodes the header of a whole run held in
// b: magic, version, minimal varints, names ascending and of legal
// length, every module holding a key, block sizes that can hold their
// counts and that tile the rest of the run exactly. It checks neither
// the blocks (mergeRange does) nor the CRC (checkRun does).
func decodeRunHeader(b []byte) (*runHeader, error) {
	if len(b) < len(runMagic)+1+4 || string(b[:len(runMagic)]) != runMagic || b[len(runMagic)] != runVersion {
		return nil, errRun
	}
	body := b[:len(b)-4]
	c := payloadCursor{p: body, off: len(runMagic) + 1}
	var h runHeader
	var err error
	if h.meta.segBytes, err = c.uvarint(); err != nil {
		return nil, errRun
	}
	if h.meta.records, err = c.uvarint(); err != nil {
		return nil, errRun
	}
	if len(body)-c.off < 4 {
		return nil, errRun
	}
	h.meta.crc = binary.LittleEndian.Uint32(body[c.off:])
	c.off += 4
	n, err := c.uvarint()
	// A module entry takes at least six bytes.
	if err != nil || n > uint64(len(body)-c.off)/6 {
		return nil, errRun
	}
	h.mods = make([]runModule, n)
	var eTotal, cTotal int64
	for i := range h.mods {
		m := &h.mods[i]
		l, err := c.uvarint()
		if err != nil || l == 0 || l > maxModuleID || l > uint64(len(body)-c.off) {
			return nil, errRun
		}
		m.name = string(body[c.off : c.off+int(l)])
		c.off += int(l)
		if i > 0 && m.name <= h.mods[i-1].name {
			return nil, errRun
		}
		var f [4]uint64
		for j := range f {
			if f[j], err = c.uvarint(); err != nil || f[j] > uint64(len(body)) {
				return nil, errRun
			}
		}
		epochs, eBytes, cells, cBytes := f[0], f[1], f[2], f[3]
		if epochs+cells == 0 || epochs > eBytes || eBytes > 5*epochs ||
			cells*minCellBytes > cBytes {
			return nil, errRun
		}
		m.epochs, m.cells = int(epochs), int(cells)
		m.epochAt, m.cellAt = eTotal, cTotal // relative until the header ends
		eTotal += int64(eBytes)
		cTotal += int64(cBytes)
	}
	if int64(c.off)+eTotal+cTotal != int64(len(body)) {
		return nil, errRun
	}
	base := int64(c.off)
	for i := range h.mods {
		h.mods[i].epochAt += base
		h.mods[i].cellAt += base + eTotal
	}
	h.epochEnd = base + eTotal
	h.cellEnd = h.epochEnd + cTotal
	return &h, nil
}

// runSegBytes returns the segment byte length a run's header records,
// read without decoding the rest: 0 if b is too short to hold it.
func runSegBytes(b []byte) uint64 {
	n, _ := binary.Uvarint(b[min(len(b), len(runMagic)+1):])
	return n
}

// checkRun checks a whole run at open by its header and its CRC only.
// The blocks are left to the merge, which decodes each of them once,
// as strictly (mergeRange).
func checkRun(b []byte) (*runHeader, error) {
	h, err := decodeRunHeader(b)
	if err != nil {
		return nil, err
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, errRun
	}
	return h, nil
}

// memReaderAt serves an in-memory run to a section without copying.
type memReaderAt []byte

func (m memReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m)) {
		return 0, io.EOF
	}
	return copy(p, m[off:]), nil
}

// section streams the bytes [off, end) of a run. A run in memory is
// served in place; a run on disk is read through a window, so a merge
// holds a bounded slice of every run. Decoding errors are sticky in
// err, and every read after one yields zeros, so decode loops, whose
// trip counts come from a checked header, need not test it per value.
type section struct {
	ra   io.ReaderAt
	next int64 // first offset not yet loaded
	end  int64
	buf  []byte
	p    []byte // loaded, unconsumed bytes
	err  error
}

// minWindow is the smallest window a section reads a file through.
const minWindow = 4 << 10

// open points s at [off, end) of ra, reusing s's window when it is
// large enough. A memReaderAt is served in place; any other ra is read
// through a window of up to window bytes.
func (s *section) open(ra io.ReaderAt, off, end int64, window int) {
	buf := s.buf
	*s = section{ra: ra, next: off, end: end}
	if m, ok := ra.(memReaderAt); ok {
		s.p, s.next = m[off:end], end
		return
	}
	n := int(min(int64(max(window, minWindow)), end-off))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	s.buf = buf[:cap(buf)]
}

// fill moves the unconsumed bytes to the front of the window and loads
// as much of the rest of the section as fits.
func (s *section) fill() {
	k := copy(s.buf, s.p)
	want := int(min(int64(len(s.buf)-k), s.end-s.next))
	n, err := s.ra.ReadAt(s.buf[k:k+want], s.next)
	if n < want {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		s.fail(fmt.Errorf("fleetlog: reading key run: %w", err))
	}
	s.next += int64(n)
	s.p = s.buf[:k+n]
}

func (s *section) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.p, s.next = nil, s.end
}

// uvarint decodes one minimal uvarint.
func (s *section) uvarint() uint64 {
	if p := s.p; len(p) >= binary.MaxVarintLen64 && p[0] < 0x80 {
		s.p = p[1:]
		return uint64(p[0])
	}
	return s.uvarintSlow()
}

// uvarintSlow is uvarint near the end of the window, or for a value
// of more than one byte.
func (s *section) uvarintSlow() uint64 {
	if len(s.p) < binary.MaxVarintLen64 && s.next < s.end {
		s.fill()
	}
	v, n := binary.Uvarint(s.p)
	if n <= 0 || s.p[n-1] == 0 && n > 1 {
		s.fail(errRun)
		return 0
	}
	s.p = s.p[n:]
	return v
}

// pos returns the offset of the next byte to be consumed.
func (s *section) pos() int64 { return s.next - int64(len(s.p)) }

// appendEpochs decodes an epoch block of n epochs (or a cell's
// epochs) and appends them to dst. One-byte deltas, nearly all of
// them, are decoded straight from the window.
func (s *section) appendEpochs(dst []uint32, n int) []uint32 {
	e := int64(-1)
	for n > 0 {
		if len(s.p) < binary.MaxVarintLen64 && s.next < s.end {
			s.fill()
		}
		p, i := s.p, 0
		for ; i < len(p) && i < n && p[i] < 0x80; i++ {
			e += 1 + int64(p[i])
			dst = append(dst, uint32(e))
		}
		s.p, n = p[i:], n-i
		if n == 0 {
			break
		}
		if len(s.p) == 0 && s.next >= s.end {
			s.fail(errRun)
			return dst
		}
		if len(s.p) > 0 && s.p[0] >= 0x80 {
			e += 1 + int64(s.uvarint())
			if e > math.MaxUint32 {
				s.fail(errRun)
				return dst
			}
			dst = append(dst, uint32(e))
			n--
		}
	}
	if e > math.MaxUint32 {
		s.fail(errRun)
	}
	return dst
}

// cellReader decodes a cell block: each next yields a cell and its
// epoch count, and the caller consumes that many epochs from the same
// section before the next call.
type cellReader struct {
	s      *section
	left   int
	at     cell
	epochs int
}

func (r *cellReader) start(s *section, n int) { r.s, r.left, r.at = s, n, cellStart }

// next decodes the next cell into r.at and its epoch count into
// r.epochs, or reports the end of the block.
func (r *cellReader) next() bool {
	if r.left == 0 {
		return false
	}
	r.left--
	s, c := r.s, r.at
	// Every value is checked to fit an int32 before it is added, so the
	// sums cannot overflow, and the coordinates' ranges after.
	v := func() int64 {
		x := s.uvarint()
		if x > math.MaxInt32 {
			s.fail(errRun)
			return 0
		}
		return int64(x)
	}
	if d := v(); d > 0 {
		c.chip, c.bank, c.row, c.col = c.chip+d, v(), v(), v()
	} else if d := v(); d > 0 {
		c.bank, c.row, c.col = c.bank+d, v(), v()
	} else if d := v(); d > 0 {
		c.row, c.col = c.row+d, v()
	} else {
		c.col += 1 + v()
	}
	if c.chip > math.MaxInt16 || c.bank > math.MaxInt16 || c.row > math.MaxInt32 || c.col > math.MaxInt32 {
		s.fail(errRun)
	}
	r.at = c
	// Every epoch takes a byte, so a count beyond the bytes left is
	// malformed; refusing it bounds the caller's loop by the run size.
	n := s.uvarint() + 1
	if n == 0 || n > uint64(len(s.p))+uint64(s.end-s.next) {
		s.fail(errRun)
		n = 0
	}
	r.epochs = int(n)
	return true
}
