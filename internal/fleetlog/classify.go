package fleetlog

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"parbor/internal/faultfs"
	"parbor/internal/memctl"
)

// RollupSchema identifies the out-of-core analytics JSON layout.
const RollupSchema = "parbor/fleetlog-rollup/v1"

// ModuleRollup is one module's classification, folded from every
// logged epoch.
type ModuleRollup struct {
	Module string `json:"module"`
	// Epochs counts the distinct completed epochs the log holds for
	// this module (replayed duplicates collapse).
	Epochs int `json:"epochs"`
	// Failures counts distinct failing cells; Observations counts
	// distinct (cell, epoch) sightings, so Observations/Failures is
	// the mean repeat rate.
	Failures     int `json:"failures"`
	Observations int `json:"observations"`
	// Transient cells were observed failing in exactly one epoch;
	// Permanent cells repeated across epochs — the field-study
	// repeat-observation split.
	Transient int `json:"transient,omitempty"`
	Permanent int `json:"permanent,omitempty"`
	// ByMode buckets the module's distinct failing cells into
	// per-(chip,bank) fault-mode populations, with the same grouping
	// rules as the live fleet rollup.
	ByMode map[string]int `json:"by_mode,omitempty"`
}

// Rollup is the whole log's classification.
type Rollup struct {
	Schema string `json:"schema"`
	// Events is the number of raw events folded (including replayed
	// duplicates); Truncations counts recovered torn tails when the
	// rollup came from Analyze.
	Events      int `json:"events"`
	Truncations int `json:"truncations,omitempty"`
	// Fleet-wide totals over PerModule.
	Modules        int            `json:"modules"`
	FailingModules int            `json:"failing_modules"`
	Epochs         int            `json:"epochs"`
	Failures       int            `json:"failures"`
	Observations   int            `json:"observations"`
	Transient      int            `json:"transient,omitempty"`
	Permanent      int            `json:"permanent,omitempty"`
	ByMode         map[string]int `json:"by_mode,omitempty"`
	// PerModule is sorted by module ID for canonical output.
	PerModule []ModuleRollup `json:"per_module,omitempty"`
}

// ClassifierConfig bounds the classifier's memory.
type ClassifierConfig struct {
	// MaxKeys is the in-memory key budget per key set (observations,
	// epochs) before the keys are sorted and spilled as a run; <= 0
	// selects 1<<20 (about 20 MiB of keys per set). Analyze's scan
	// workers share it: each holds a 1/W share of both sets, so the
	// bound is the same at every worker count. The merge's read
	// windows share MaxKeys*20 bytes. The differential suite runs it
	// down to a few keys; results are identical, only spill traffic
	// changes.
	MaxKeys int
	// SpillDir is the directory that holds the temporary sorted runs:
	// each scan worker appends its runs to one spill file there,
	// created on its first spill and removed once the rollup is built.
	// It is created if missing; empty selects os.TempDir().
	SpillDir string
	// FS is the filesystem seam spill files and (via Analyze) segment
	// and summary reads go through; nil selects the real filesystem.
	FS faultfs.FS
}

// defaultMaxKeys is the key budget MaxKeys <= 0 selects.
const defaultMaxKeys = 1 << 20

// classifier folds events into a Rollup with O(modules) heap state.
// Each shard packs its events' keys ((module, cell, epoch)
// observations and (module, epoch) pairs) into a runBuilder and spills
// it as a sorted run (summary.go) whenever a key set fills; finish
// merges every run, the shards' residues and any segment summaries
// Analyze found, module by module. The result is a pure function of
// the event set — order, duplication, segmentation, summaries and
// memory budget cannot change a byte of it.
type classifier struct {
	fsys    faultfs.FS
	maxKeys int
	shards  []*shard
	done    bool
}

// shard is one scan worker's classifier state: a builder holding its
// keys under a 1/n share of the budget, the runs it spilled or took
// from segment summaries, and the number of events they and the
// builder hold. Its spill runs are consecutive sections of one spill
// file, so the files it holds open do not grow with its spills.
type shard struct {
	fsys   faultfs.FS
	dir    string
	worker int
	b      *runBuilder
	// seg is the highest segment decoded into the builder since it was
	// last empty: the segment of the run it spills or seals next.
	seg int
	// spillFile holds the shard's spill runs, and spillEnd ends the
	// last; the file is created on the first spill.
	spillFile faultfs.File
	spillEnd  int64
	runs      []*run
	buf       []byte // run encoding and summary reading scratch
	events    int
}

// newClassifier builds a classifier of n shards, each with a 1/n share
// of cfg.MaxKeys (which must be at least n) per key set; call close
// if finish is never reached, or spill files leak.
func newClassifier(cfg ClassifierConfig, n int) *classifier {
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.MaxKeys <= 0 {
		cfg.MaxKeys = defaultMaxKeys
	}
	dir := cfg.SpillDir
	if dir == "" {
		dir = os.TempDir()
	}
	c := &classifier{fsys: cfg.FS, maxKeys: cfg.MaxKeys}
	for i := range n {
		c.shards = append(c.shards, &shard{
			fsys:   cfg.FS,
			dir:    dir,
			worker: i,
			b:      newRunBuilder(cfg.MaxKeys / n),
		})
	}
	return c
}

// Key packing: big-endian fields so bytewise order equals tuple
// order. Observation keys group by (module, chip, bank, row, col)
// with epoch last; epoch keys use only the first eight bytes.
func packObs(mod uint32, a memctl.BitAddr, epoch uint32) spillKey {
	var k spillKey
	binary.BigEndian.PutUint32(k[0:4], mod)
	binary.BigEndian.PutUint16(k[4:6], uint16(a.Chip))
	binary.BigEndian.PutUint16(k[6:8], uint16(a.Bank))
	binary.BigEndian.PutUint32(k[8:12], uint32(a.Row))
	binary.BigEndian.PutUint32(k[12:16], uint32(a.Col))
	binary.BigEndian.PutUint32(k[16:20], epoch)
	return k
}

func packEpoch(mod, epoch uint32) spillKey {
	var k spillKey
	binary.BigEndian.PutUint32(k[0:4], mod)
	binary.BigEndian.PutUint32(k[4:8], epoch)
	return k
}

// observe folds one event into the shard, spilling the builder as a
// run whenever a key set fills; the shard keeps nothing of ev but the
// module name, and strings are immutable.
func (s *shard) observe(ev *Event) error {
	if err := checkEvent(ev); err != nil {
		return err
	}
	mod, err := s.b.modID(ev.Module)
	if err != nil {
		return err
	}
	epoch := uint32(ev.Epoch)
	if s.b.epochs.add(packEpoch(mod, epoch)) {
		if err := s.spill(); err != nil {
			return err
		}
	}
	for _, a := range ev.Fails {
		if s.b.obs.add(packObs(mod, a, epoch)) {
			if err := s.spill(); err != nil {
				return err
			}
		}
	}
	s.events++
	return nil
}

// spill sorts the builder's keys and writes them as one run at the end
// of the shard's spill file, creating it on the first spill. A write
// that fails fails the query, and close removes the file, partial run
// and all.
func (s *shard) spill() error {
	if s.spillFile == nil {
		// The spill dir is scratch space the caller merely names (e.g.
		// parborlog -spill); create it on first use rather than
		// demanding it exists.
		if err := s.fsys.MkdirAll(s.dir, 0o755); err != nil {
			return fmt.Errorf("fleetlog: creating spill dir: %w", err)
		}
		name := fmt.Sprintf("fleetlog-spill-%d-%d-w%d.run", os.Getpid(), tempSeq.Add(1), s.worker)
		f, err := s.fsys.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
		if err != nil {
			return fmt.Errorf("fleetlog: creating spill file: %w", err)
		}
		s.spillFile = f
	}
	var h *runHeader
	s.buf, h = s.b.appendRun(s.buf[:0], runMeta{})
	if _, err := s.spillFile.WriteAt(s.buf, s.spillEnd); err != nil {
		return fmt.Errorf("fleetlog: writing spill run: %w", err)
	}
	ra := io.NewSectionReader(s.spillFile, s.spillEnd, int64(len(s.buf)))
	s.spillEnd += int64(len(s.buf))
	s.runs = append(s.runs, &run{hdr: h, ra: ra, seg: s.seg})
	return nil
}

// seal sorts the builder's residue into an in-memory run. A scan
// worker seals its shard before it returns, so the sorts run on every
// worker rather than serially in finish; finish seals the rest.
func (s *shard) seal() {
	if s.b.empty() {
		return
	}
	data, h := s.b.appendRun(nil, runMeta{})
	s.runs = append(s.runs, &run{hdr: h, ra: memReaderAt(data), seg: s.seg})
}

// bankAgg is the fault-mode fold over one (chip, bank) group of
// failures, fed in canonical order. finish runs it over the merged
// log; CountModes runs it over the live fleet's failure sets, so the
// two rollups classify identically.
type bankAgg struct {
	n        int
	row, col int32
	oneRow   bool
	oneCol   bool
	first    bool
}

func (g *bankAgg) reset() { *g = bankAgg{oneRow: true, oneCol: true} }

func (g *bankAgg) addAddr(row, col int32) {
	if !g.first {
		g.row, g.col, g.first = row, col, true
	} else {
		if row != g.row {
			g.oneRow = false
		}
		if col != g.col {
			g.oneCol = false
		}
	}
	g.n++
}

// mode classifies a finished bank group: one cell is a single-bit
// fault; a multi-cell group confined to one row (column) is a
// single-row (single-column) fault; anything else is a scattered
// multi-cell population.
func (g *bankAgg) mode() string {
	switch {
	case g.n == 1:
		return ModeSingleBit
	case g.oneRow:
		return ModeSingleRow
	case g.oneCol:
		return ModeSingleColumn
	default:
		return ModeMultiCell
	}
}

// CountModes buckets a failure list into fault modes, adding one count
// per (chip, bank) group to into under the group's mode (see
// bankAgg.mode). fails must be in canonical order
// (memctl.CompareAddrs), so each group is one contiguous run.
func CountModes(fails []memctl.BitAddr, into map[string]int) {
	var g bankAgg
	g.reset()
	for i, a := range fails {
		if i > 0 && (a.Chip != fails[i-1].Chip || a.Bank != fails[i-1].Bank) {
			into[g.mode()]++
			g.reset()
		}
		g.addAddr(a.Row, a.Col)
	}
	if len(fails) > 0 {
		into[g.mode()]++
	}
}

// close releases the runs: it closes every open summary, and closes
// and removes the spill files (summaries stay). Idempotent; finish
// calls it.
func (c *classifier) close() {
	for _, s := range c.shards {
		for _, r := range s.runs {
			if r.f != nil {
				//parbor:droperr read-side close of a summary whose keys are merged or no longer needed
				r.f.Close()
			}
		}
		s.runs = nil
		if s.spillFile != nil {
			//parbor:droperr close of a scratch spill file whose runs are merged or no longer needed
			s.spillFile.Close()
			//parbor:droperr best-effort removal of a scratch spill file
			c.fsys.Remove(s.spillFile.Name())
			s.spillFile = nil
		}
	}
}

// Analyze classifies a whole log directory: the offline half of the
// analytics pipeline (parborlog, and the daemon's /v1/analytics
// endpoint). It scans the segments on min(GOMAXPROCS, segments,
// MaxKeys) workers. A segment whose summary still matches it (same
// byte length and CRC-32C of the whole file, hashed in bulk without
// parsing a record) contributes its summary's sorted run. Any other
// segment is decoded, every record's checksum verified, and keyed into
// the worker's shard; an untorn one whose keys fit the worker's share
// of MaxKeys is summarized from those keys as the query opened it (so
// the tail's summary is stale after an append), and the query merges
// the summary it wrote. With more than one worker the tail is claimed
// first. finish then merges the runs in segment order on up to
// GOMAXPROCS workers over disjoint module ranges. The rollup is the
// one a single classifier fed the log in order would give; so is the
// error, the lowest-numbered failing segment's. Once ctx is done the
// workers stop and Analyze returns ctx.Err(), with its spill files
// removed. Concurrent calls on one directory are safe: a summary is
// renamed into place whole, and a query merges the file it checked. A
// summary whose CRC checks but whose blocks do not decode, which only
// a writer bug or a crafted file makes, fails the query with an error
// that names it.
func Analyze(ctx context.Context, dir string, cfg ClassifierConfig) (*Rollup, error) {
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.MaxKeys <= 0 {
		cfg.MaxKeys = defaultMaxKeys
	}
	segs, err := listSegments(cfg.FS, dir)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: listing log dir: %w", err)
	}
	c := newClassifier(cfg, max(1, min(runtime.GOMAXPROCS(0), len(segs), cfg.MaxKeys)))
	defer c.close()
	sc := &scan{
		ctx: ctx, fsys: cfg.FS, dir: dir, segs: segs,
		tailFirst: len(c.shards) > 1,
		torn:      make([]bool, len(segs)), errs: make([]error, len(segs)),
	}
	sc.stop.Store(int64(len(segs)))
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.work(sh)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range sc.errs {
		if err != nil {
			return nil, err
		}
	}
	r, err := c.finish(ctx)
	if err != nil {
		return nil, err
	}
	for _, torn := range sc.torn {
		if torn {
			r.Truncations++
		}
	}
	return r, nil
}

// scan is one Analyze pass over a log's segments. Workers claim whole
// segments from next (see order). A failing segment lowers stop to its
// index, and a claim of a segment at or past stop is skipped. Every
// claim but the tail's is of a higher segment than the claims before
// it, so the segments below stop were all claimed already, and they
// run to the end, since one of them may fail too. The lowest error is
// thus the one a serial scan would meet first, at every worker count.
type scan struct {
	ctx  context.Context
	fsys faultfs.FS
	dir  string
	segs []string
	// tailFirst makes the tail the first claim (see order).
	tailFirst bool
	next      atomic.Int64
	stop      atomic.Int64
	// unwritable is set once a summary could not be written: the rest
	// of the query summarizes nothing.
	unwritable atomic.Bool
	// The slices are indexed by segment; each slot is written by the
	// one worker that claimed the segment and read after all are done.
	torn []bool
	errs []error
}

// ctxStride is how many records a scan worker reads between checks of
// its context.
const ctxStride = 4096

// work claims and folds segments until every one is claimed or the
// context is done, then seals the shard's residue so the merge finds
// it sorted.
func (sc *scan) work(sh *shard) {
	var ev Event
	for sc.ctx.Err() == nil {
		k := int(sc.next.Add(1) - 1)
		if k >= len(sc.segs) {
			break
		}
		i := sc.order(k)
		if int64(i) >= sc.stop.Load() {
			continue
		}
		if !sc.summarized(i, sh) {
			sc.segment(i, sh, &ev)
		}
	}
	if sc.ctx.Err() == nil {
		sh.seal()
	}
}

// order returns the segment of the k-th claim. With tailFirst the tail,
// whose summary an append makes stale, is claimed first, so a decode of
// it runs beside the sealed segments, not alone after them; the rest
// follow in segment order. With one worker every claim is in segment
// order, as a serial read goes.
func (sc *scan) order(k int) int {
	switch {
	case !sc.tailFirst:
		return k
	case k == 0:
		return len(sc.segs) - 1
	default:
		return k - 1
	}
}

// sumPath is segment i's summary file.
func (sc *scan) sumPath(i int) string {
	return filepath.Join(sc.dir, sumName(segSeq(sc.segs[i])))
}

// summarized reports whether segment i is done with through its
// summary: the summary, read whole into sh.buf, has a valid header and
// CRC, the segment is still the file it describes, and sh merges it.
// The merge reads the file checked, so another query renaming a new
// summary over it meanwhile changes nothing. A done context also ends
// the segment here. A missing, torn or stale summary leaves the
// segment to a decoding scan, which reports any damage to it. The
// blocks are decoded only by the merge, so a summary whose CRC checks
// but whose blocks do not decode fails the query there.
func (sc *scan) summarized(i int, sh *shard) bool {
	f, err := sc.fsys.Open(sc.sumPath(i))
	if err != nil {
		return false
	}
	st, err := f.Stat()
	if err == nil {
		sh.buf = slices.Grow(sh.buf[:0], int(st.Size()))[:st.Size()]
		_, err = io.ReadFull(f, sh.buf)
	}
	var h *runHeader
	if err == nil {
		h = sc.unchanged(i, sh)
	}
	if h != nil {
		sh.runs = append(sh.runs, &run{hdr: h, f: f, ra: f, seg: i})
		sh.events += int(h.meta.records)
		return true
	}
	//parbor:droperr read-side close of a summary that is not used
	f.Close()
	return sc.ctx.Err() != nil
}

// unchanged returns the header of the summary in sh.buf if its header
// and CRC check out and segment i still has its byte length (compared
// first, so a grown tail's summary goes unchecked) and CRC-32C, hashed
// in bulk through sh.buf; else nil, as for an unreadable segment.
func (sc *scan) unchanged(i int, sh *shard) *runHeader {
	f, err := sc.fsys.Open(filepath.Join(sc.dir, sc.segs[i]))
	if err != nil {
		return nil
	}
	//parbor:droperr read-side close of a segment that was only hashed
	defer f.Close()
	st, err := f.Stat()
	if err != nil || uint64(st.Size()) != runSegBytes(sh.buf) {
		return nil
	}
	h, err := checkRun(sh.buf)
	if err != nil {
		return nil
	}
	sh.buf = slices.Grow(sh.buf[:0], crcChunk)
	if crc, err := fileCRC(sc.ctx, f, st.Size(), sh.buf[:cap(sh.buf)]); err != nil || crc != h.meta.crc {
		return nil
	}
	return h
}

// crcChunk is the least a scan worker reads of a segment at once to
// hash it.
const crcChunk = 256 << 10

// fileCRC returns the CRC-32C of the next size bytes of r, read
// through buf, or ctx's error once it is done.
func fileCRC(ctx context.Context, r io.Reader, size int64, buf []byte) (uint32, error) {
	var crc uint32
	for size > 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		n, err := io.ReadFull(r, buf[:min(int64(len(buf)), size)])
		if err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, buf[:n])
		size -= int64(n)
	}
	return crc, nil
}

// segment folds segment i into sh, decoding into the worker's reused
// ev. A torn tail is recorded and ends the segment; any other failure
// is recorded against the segment and stops the scan. A segment is
// keyed into an empty builder (a residue is spilled first) and, if it
// is untorn and all its keys fit the shard's share of the key budget,
// written as its summary, which sh then merges. After a summary cannot
// be written, the query summarizes no more segments. A tail that was
// not summarized is sealed into an in-memory run: claimed first, it
// would otherwise be the residue the next segment spills.
func (sc *scan) segment(i int, sh *shard, ev *Event) {
	sr, err := openSegment(sc.fsys, filepath.Join(sc.dir, sc.segs[i]))
	if err != nil {
		sc.fail(i, err)
		return
	}
	//parbor:droperr read-side close of a segment whose records are folded or whose error is recorded
	defer sr.close()
	summarize := !sc.unwritable.Load()
	if summarize && !sh.b.empty() {
		if err := sh.spill(); err != nil {
			sc.fail(i, err)
			return
		}
	}
	if sh.b.empty() {
		sh.seg = i
	} else {
		sh.seg = max(sh.seg, i)
	}
	runs := len(sh.runs)
	var meta runMeta
	for err == nil {
		if err = sr.event(ev); err == nil {
			meta.records++
			err = sh.observe(ev)
		}
		if meta.records%ctxStride == 0 && sc.ctx.Err() != nil {
			return
		}
	}
	_, torn := err.(errTorn)
	if !torn && err != errSegEnd {
		// Stop the other workers before releasing the segment.
		sc.fail(i, err)
		return
	}
	sc.torn[i] = torn
	if summarize && !torn && len(sh.runs) == runs {
		meta.segBytes, meta.crc = uint64(sr.size), sr.sum.Sum32()
		if !sh.summarize(sc.sumPath(i), meta) {
			sc.unwritable.Store(true)
		}
		return
	}
	if i == len(sc.segs)-1 {
		sh.seal()
	}
}

// fail records segment i's error and lowers stop to i.
func (sc *scan) fail(i int, err error) {
	sc.errs[i] = err
	for cur := sc.stop.Load(); int64(i) < cur && !sc.stop.CompareAndSwap(cur, int64(i)); cur = sc.stop.Load() {
	}
}

// summarize sorts the builder's keys, one segment's, into its
// summary with meta and writes it to path, and the shard merges the
// file written. It reports false if the summary could not be written;
// the shard then keeps the run in memory.
func (s *shard) summarize(path string, meta runMeta) bool {
	var h *runHeader
	s.buf, h = s.b.appendRun(s.buf[:0], meta)
	if f := writeSummary(s.fsys, path, s.buf); f != nil {
		s.runs = append(s.runs, &run{hdr: h, f: f, ra: f, seg: s.seg})
		return true
	}
	s.runs = append(s.runs, &run{hdr: h, ra: memReaderAt(slices.Clone(s.buf)), seg: s.seg})
	return false
}

// tempSeq numbers the temporary files: the spill files, and those
// summaries are written through.
var tempSeq atomic.Uint64

// isSumTemp reports whether name is the temporary file of a summary
// (writeSummary), <seq>.sum.<pid>-<n>.tmp.
func isSumTemp(name string) bool {
	sum, _, ok := strings.Cut(name, sumSuffix+".")
	return ok && strings.HasSuffix(name, ".tmp") && seqOf(sum+sumSuffix, sumSuffix) > 0
}

// writeSummary writes a summary to a temporary file beside path and
// renames it over path, so that a concurrent Analyze finds the old
// summary or the whole new one, never part of one, and returns the
// file, open for reading. It returns nil if the summary cannot be
// written. The write is unsynced: a summary is a cache of its segment,
// and one that a crash tears or loses is rebuilt by the next Analyze.
func writeSummary(fsys faultfs.FS, path string, data []byte) faultfs.File {
	tmp := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), tempSeq.Add(1))
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil
	}
	if _, err = f.Write(data); err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		//parbor:droperr the summary is abandoned; the query keeps its run in memory
		f.Close()
		//parbor:droperr best-effort removal of a partial summary that nothing reads
		fsys.Remove(tmp)
		return nil
	}
	return f
}
