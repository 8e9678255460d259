package fleetlog

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	// SpillDir holds the temporary sorted runs. Empty selects a fresh
	// os.MkdirTemp directory that is removed once the rollup is built.
	SpillDir string
	// FS is the filesystem seam spill runs and (via Analyze) segment
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
	fsys     faultfs.FS
	spillDir string
	ownDir   bool
	maxKeys  int
	shards   []*shard
	done     bool
}

// shard is one scan worker's classifier state: a builder holding its
// keys under a 1/n share of the budget, the runs it spilled or took
// from segment summaries, and the number of events they and the
// builder hold.
type shard struct {
	fsys   faultfs.FS
	dir    string
	prefix string
	b      *runBuilder
	runs   []*run
	buf    []byte // run encoding and summary reading scratch
	events int
}

// newClassifier builds a classifier of n shards, each with a 1/n share
// of cfg.MaxKeys (which must be at least n) per key set; call close
// if finish is never reached, or spill files leak.
func newClassifier(cfg ClassifierConfig, n int) (*classifier, error) {
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.MaxKeys <= 0 {
		cfg.MaxKeys = defaultMaxKeys
	}
	dir, own := cfg.SpillDir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "fleetlog-spill-")
		if err != nil {
			return nil, fmt.Errorf("fleetlog: creating spill dir: %w", err)
		}
		dir, own = d, true
	}
	c := &classifier{fsys: cfg.FS, spillDir: dir, ownDir: own, maxKeys: cfg.MaxKeys}
	for i := range n {
		c.shards = append(c.shards, &shard{
			fsys:   cfg.FS,
			dir:    dir,
			prefix: fmt.Sprintf("w%d", i),
			b:      newRunBuilder(cfg.MaxKeys / n),
		})
	}
	return c, nil
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

// spill sorts the builder's keys and writes them as one run file.
func (s *shard) spill() error {
	s.buf = s.b.appendRun(s.buf[:0], runMeta{})
	h, err := decodeRunHeader(s.buf)
	if err != nil {
		return fmt.Errorf("fleetlog: encoding spill run: %w", err)
	}
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
	_, err = f.Write(s.buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// A partial run never reaches s.runs, so close would not find
		// it: remove it here, or a caller-named spill dir keeps it.
		//parbor:droperr best-effort removal of a scratch run that already failed; the write error is what the caller needs
		s.fsys.Remove(path)
		return fmt.Errorf("fleetlog: writing spill run: %w", err)
	}
	s.runs = append(s.runs, &run{hdr: h, path: path})
	return nil
}

// seal sorts the builder's residue into an in-memory run. A scan
// worker seals its shard before it returns, so the sorts run on every
// worker rather than serially in finish; finish seals the rest.
func (s *shard) seal() {
	if s.b.empty() {
		return
	}
	data := s.b.appendRun(nil, runMeta{})
	h, err := decodeRunHeader(data)
	if err != nil {
		panic("fleetlog: a run just encoded does not decode: " + err.Error())
	}
	s.runs = append(s.runs, &run{hdr: h, ra: memReaderAt(data)})
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

// close releases the runs: it closes every open run file and removes
// the spill runs (summaries stay). Idempotent; finish calls it.
func (c *classifier) close() {
	for _, s := range c.shards {
		for _, r := range s.runs {
			if r.f != nil {
				//parbor:droperr read-side close of a run whose keys are merged or no longer needed
				r.f.Close()
			}
			if r.path != "" {
				//parbor:droperr best-effort removal of a scratch spill run
				c.fsys.Remove(r.path)
			}
		}
		s.runs = nil
	}
	if c.ownDir && c.spillDir != "" {
		os.RemoveAll(c.spillDir)
		c.spillDir = ""
	}
}

// Analyze classifies a whole log directory: the offline half of the
// analytics pipeline (parborlog, and the daemon's /v1/analytics
// endpoint). It scans the segments on min(GOMAXPROCS, segments,
// MaxKeys) workers, and every record of every segment is read and its
// checksum verified. A segment whose summary matches that walk (same
// byte length, record count and record-CRC digest) contributes its
// summary's sorted run. Any other segment is decoded and keyed into
// the worker's shard; a sealed one (any but the last) whose keys fit
// the worker's share of MaxKeys is summarized from those keys, and the
// query merges the summary it wrote. finish then merges on up to
// GOMAXPROCS workers over disjoint module ranges. The rollup is the
// one a single classifier fed the log in order would give; so is the
// error, the lowest-numbered failing segment's. Once ctx is done the
// workers stop and Analyze returns ctx.Err(), with its spill runs
// removed. Concurrent calls on one directory are safe: a summary is
// renamed into place whole, and a query merges the file it checked.
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
	c, err := newClassifier(cfg, max(1, min(runtime.GOMAXPROCS(0), len(segs), cfg.MaxKeys)))
	if err != nil {
		return nil, err
	}
	defer c.close()
	sc := &scan{
		ctx: ctx, fsys: cfg.FS, dir: dir, segs: segs,
		torn: make([]bool, len(segs)), errs: make([]error, len(segs)),
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
// segments in segment order from next. A failing segment lowers stop
// to its index, and no worker claims a segment at or past stop; the
// segments below it were all claimed already and run to the end,
// since one of them may fail too. The lowest error is thus the one a
// serial scan would meet first, at every worker count.
type scan struct {
	ctx  context.Context
	fsys faultfs.FS
	dir  string
	segs []string
	next atomic.Int64
	stop atomic.Int64
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

// work claims and folds segments until none is left below stop or the
// context is done, then seals the shard's residue so the merge finds
// it sorted.
func (sc *scan) work(sh *shard) {
	var ev Event
	for sc.ctx.Err() == nil {
		i := sc.next.Add(1) - 1
		if i >= sc.stop.Load() {
			break
		}
		if !sc.summarized(int(i), sh) {
			sc.segment(int(i), sh, &ev)
		}
	}
	if sc.ctx.Err() == nil {
		sh.seal()
	}
}

// sumPath is segment i's summary file.
func (sc *scan) sumPath(i int) string {
	return filepath.Join(sc.dir, sumName(segSeq(sc.segs[i])))
}

// summarized reports whether segment i is done with through its
// summary: the summary checks out and matches a walk over the
// segment's records, and sh merges it. A failed read of the segment,
// recorded in errs, and a done context also end the segment here. A
// missing, malformed or stale summary, and a torn segment, leave the
// segment to a decoding scan.
func (sc *scan) summarized(i int, sh *shard) bool {
	f, h := sh.readSummary(sc.sumPath(i))
	if f == nil {
		return false
	}
	meta, err := sc.walk(i)
	if err == nil && meta == h.meta {
		sh.runs = append(sh.runs, &run{hdr: h, f: f, ra: f})
		sh.events += int(meta.records)
		return true
	}
	//parbor:droperr read-side close of a summary that is not used
	f.Close()
	if _, torn := err.(errTorn); err == nil || torn {
		return false
	}
	if err != errStopped {
		sc.fail(i, err)
	}
	return true
}

// errStopped ends a walk whose context is done.
var errStopped = fmt.Errorf("fleetlog: walk stopped")

// walk reads segment i's records, verifying their checksums, and
// returns the segment's meta. It returns an errTorn for a torn
// segment, errStopped once the context is done, and any other failure
// to read the segment.
func (sc *scan) walk(i int) (runMeta, error) {
	meta := runMeta{digest: digestSeed}
	sr, err := openSegment(sc.fsys, filepath.Join(sc.dir, sc.segs[i]))
	if err != nil {
		return meta, err
	}
	//parbor:droperr read-side close of a segment whose records are verified or whose error is returned
	defer sr.close()
	for {
		_, err := sr.record()
		if err == errSegEnd {
			meta.segBytes = uint64(sr.size)
			return meta, nil
		}
		if err != nil {
			return meta, err
		}
		meta.records++
		meta.digest = digestAdd(meta.digest, sr.crc)
		if meta.records%ctxStride == 0 && sc.ctx.Err() != nil {
			return meta, errStopped
		}
	}
}

// segment folds segment i into sh, decoding into the worker's reused
// ev. A torn tail is recorded and ends the segment; any other failure
// is recorded against the segment and stops the scan. A sealed
// segment is keyed into an empty builder (a residue is spilled first),
// and if all its keys fit, they are written as its summary, which sh
// then merges; the segment's keys never take more than the shard's
// share of the key budget. After a summary cannot be written, the
// query summarizes no more segments.
func (sc *scan) segment(i int, sh *shard, ev *Event) {
	sr, err := openSegment(sc.fsys, filepath.Join(sc.dir, sc.segs[i]))
	if err != nil {
		sc.fail(i, err)
		return
	}
	//parbor:droperr read-side close of a segment whose records are folded or whose error is recorded
	defer sr.close()
	summarize := i < len(sc.segs)-1 && !sc.unwritable.Load()
	if summarize && !sh.b.empty() {
		if err := sh.spill(); err != nil {
			sc.fail(i, err)
			return
		}
	}
	runs := len(sh.runs)
	meta := runMeta{digest: digestSeed}
	for err == nil {
		if err = sr.event(ev); err == nil {
			meta.records++
			meta.digest = digestAdd(meta.digest, sr.crc)
			err = sh.observe(ev)
		}
		if meta.records%ctxStride == 0 && sc.ctx.Err() != nil {
			return
		}
	}
	if _, torn := err.(errTorn); torn {
		sc.torn[i] = true
		return
	}
	if err != errSegEnd {
		// Stop the other workers before releasing the segment.
		sc.fail(i, err)
		return
	}
	if summarize && len(sh.runs) == runs {
		meta.segBytes = uint64(sr.size)
		if !sh.summarize(sc.sumPath(i), meta) {
			sc.unwritable.Store(true)
		}
	}
}

// fail records segment i's error and lowers stop to i.
func (sc *scan) fail(i int, err error) {
	sc.errs[i] = err
	for cur := sc.stop.Load(); int64(i) < cur && !sc.stop.CompareAndSwap(cur, int64(i)); cur = sc.stop.Load() {
	}
}

// readSummary opens the summary at path and checks all of it,
// returning the open file and its header, or nil if it is missing,
// unreadable or malformed. The merge reads the file it returns, so a
// query merges the bytes it checked even if another query renames a
// new summary over path meanwhile.
func (s *shard) readSummary(path string) (faultfs.File, *runHeader) {
	f, err := s.fsys.Open(path)
	if err != nil {
		return nil, nil
	}
	st, err := f.Stat()
	if err == nil {
		s.buf = slices.Grow(s.buf[:0], int(st.Size()))[:st.Size()]
		_, err = io.ReadFull(f, s.buf)
	}
	var h *runHeader
	if err == nil {
		h, err = checkRun(s.buf)
	}
	if err != nil {
		//parbor:droperr read-side close of a summary that is not used
		f.Close()
		return nil, nil
	}
	return f, h
}

// summarize sorts the builder's keys, one sealed segment's, into its
// summary with meta and writes it to path, and the shard merges the
// file written. It reports false if the summary could not be written;
// the shard then keeps the run in memory.
func (s *shard) summarize(path string, meta runMeta) bool {
	s.buf = s.b.appendRun(s.buf[:0], meta)
	h, err := decodeRunHeader(s.buf)
	if err != nil {
		panic("fleetlog: a run just encoded does not decode: " + err.Error())
	}
	if f := writeSummary(s.fsys, path, s.buf); f != nil {
		s.runs = append(s.runs, &run{hdr: h, f: f, ra: f})
		return true
	}
	s.runs = append(s.runs, &run{hdr: h, ra: memReaderAt(slices.Clone(s.buf))})
	return false
}

// sumTemps numbers the temporary files summaries are written through.
var sumTemps atomic.Uint64

// writeSummary writes a summary to a temporary file beside path and
// renames it over path, so that a concurrent Analyze finds the old
// summary or the whole new one, never part of one, and returns the
// file, open for reading. It returns nil if the summary cannot be
// written. The write is unsynced: a summary is a cache of its segment,
// and one that a crash tears or loses is rebuilt by the next Analyze.
func writeSummary(fsys faultfs.FS, path string, data []byte) faultfs.File {
	tmp := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), sumTemps.Add(1))
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
