package fleetlog

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
	// MaxKeys is the in-memory key budget per spill set before a
	// sorted run is flushed to disk; <= 0 selects 1<<20 (about 20 MiB
	// of keys per set). Analyze's scan workers share it: each holds a
	// 1/W share of both sets, so the bound is the same at every worker
	// count. The differential suite runs it down to a few keys;
	// results are identical, only spill traffic changes.
	MaxKeys int
	// SpillDir holds the temporary sorted runs. Empty selects a fresh
	// os.MkdirTemp directory that is removed once the rollup is built.
	SpillDir string
	// FS is the filesystem seam spill runs and (via Analyze) segment
	// reads go through; nil selects the real filesystem.
	FS faultfs.FS
}

// defaultMaxKeys is the key budget MaxKeys <= 0 selects.
const defaultMaxKeys = 1 << 20

// classifier folds a stream of events into a Rollup with O(modules)
// heap state: per-event keys go into two deduplicating spill sets
// ((module, cell, epoch) observations and (module, epoch) pairs), and
// finish streams their sorted merge through a constant-state group
// fold. The result is a pure function of the event set — order,
// duplication, segmentation, and memory budget cannot change a byte
// of it.
//
// Analyze folds into one shard per scan worker, and finish merges
// every shard's sets the same way whatever their number.
type classifier struct {
	spillDir string
	ownDir   bool
	mods     *modTable
	shards   []*shard
	done     bool
}

// modTable interns module names into the IDs that lead every key. All
// of a classifier's shards share one table, so a module has the same
// ID, and its keys sort alike, whichever worker saw it. Which module
// gets which ID depends on scheduling, but IDs never reach the rollup:
// PerModule is sorted by name, and every count is per module or a sum.
type modTable struct {
	mu    sync.Mutex
	ids   map[string]uint32 //parbor:guardedby mu
	names []string          //parbor:guardedby mu
}

// intern returns name's ID, assigning the next one on first sight.
func (t *modTable) intern(name string) (uint32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id, nil
	}
	if len(t.names) >= math.MaxUint32 {
		return 0, fmt.Errorf("fleetlog: module population overflow")
	}
	id := uint32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id, nil
}

// list returns the names indexed by ID.
func (t *modTable) list() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.names
}

// shard is one scan worker's classifier state: its own two spill sets,
// a private cache of the shared module table (a warm event takes no
// lock), and the number of events it folded.
type shard struct {
	mods   *modTable
	ids    map[string]uint32
	events int
	obs    *spillSet
	epochs *spillSet
}

// newClassifier builds a classifier of n shards, each with a 1/n share
// of cfg.MaxKeys (which must be at least n) per spill set; call close
// if finish is never reached, or spill files leak.
func newClassifier(cfg ClassifierConfig, n int) (*classifier, error) {
	dir, own := cfg.SpillDir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "fleetlog-spill-")
		if err != nil {
			return nil, fmt.Errorf("fleetlog: creating spill dir: %w", err)
		}
		dir, own = d, true
	}
	c := &classifier{
		spillDir: dir,
		ownDir:   own,
		mods:     &modTable{ids: make(map[string]uint32)},
	}
	limit := cfg.MaxKeys / n
	for i := range n {
		c.shards = append(c.shards, &shard{
			mods:   c.mods,
			ids:    make(map[string]uint32),
			obs:    newSpillSet(cfg.FS, limit, dir, fmt.Sprintf("w%d-obs", i)),
			epochs: newSpillSet(cfg.FS, limit, dir, fmt.Sprintf("w%d-epoch", i)),
		})
	}
	return c, nil
}

// modID interns a module name through the shard's cache.
func (s *shard) modID(name string) (uint32, error) {
	if id, ok := s.ids[name]; ok {
		return id, nil
	}
	id, err := s.mods.intern(name)
	if err != nil {
		return 0, err
	}
	s.ids[name] = id
	return id, nil
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

// observe folds one event into the shard; the shard keeps nothing of
// ev but the module name, and strings are immutable.
func (s *shard) observe(ev *Event) error {
	if ev.Module == "" {
		return fmt.Errorf("fleetlog: event with empty module id")
	}
	if ev.Epoch < 0 || ev.Epoch > math.MaxUint32 {
		return fmt.Errorf("fleetlog: module %s: epoch %d out of range", ev.Module, ev.Epoch)
	}
	mod, err := s.modID(ev.Module)
	if err != nil {
		return err
	}
	epoch := uint32(ev.Epoch)
	if err := s.epochs.add(packEpoch(mod, epoch)); err != nil {
		return err
	}
	for _, a := range ev.Fails {
		if a.Chip < 0 || a.Bank < 0 || a.Row < 0 || a.Col < 0 {
			return fmt.Errorf("fleetlog: module %s: negative failure coordinate %+v", ev.Module, a)
		}
		if err := s.obs.add(packObs(mod, a, epoch)); err != nil {
			return err
		}
	}
	s.events++
	return nil
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

// finish merges every shard's spill sets and folds the sorted streams
// into the rollup. The classifier is consumed.
func (c *classifier) finish() (*Rollup, error) {
	if c.done {
		return nil, fmt.Errorf("fleetlog: classifier already finished")
	}
	c.done = true
	defer c.close()

	names := c.mods.list()
	events := 0
	var obs, epochs []*spillSet
	for _, s := range c.shards {
		events += s.events
		obs = append(obs, s.obs)
		epochs = append(epochs, s.epochs)
	}

	// Distinct completed epochs per module.
	epochCount := make(map[uint32]int, len(names))
	if err := mergeSets(epochs, func(k spillKey) error {
		epochCount[binary.BigEndian.Uint32(k[0:4])]++
		return nil
	}); err != nil {
		return nil, err
	}

	// Group fold over (module, chip, bank, row, col, epoch)-sorted
	// observations: constant state — the current cell run and the
	// current bank group.
	perMod := make(map[uint32]*ModuleRollup, len(names))
	get := func(mod uint32) *ModuleRollup {
		mr := perMod[mod]
		if mr == nil {
			mr = &ModuleRollup{Module: names[mod]}
			perMod[mod] = mr
		}
		return mr
	}
	var (
		prev       spillKey
		have       bool
		addrEpochs int
		bank       bankAgg
	)
	sameAddr := func(a, b spillKey) bool { return [16]byte(a[:16]) == [16]byte(b[:16]) }
	sameBank := func(a, b spillKey) bool { return [8]byte(a[:8]) == [8]byte(b[:8]) }
	endAddr := func(k spillKey) {
		mr := get(binary.BigEndian.Uint32(k[0:4]))
		mr.Failures++
		mr.Observations += addrEpochs
		if addrEpochs >= 2 {
			mr.Permanent++
		} else {
			mr.Transient++
		}
		bank.addAddr(int32(binary.BigEndian.Uint32(k[8:12])), int32(binary.BigEndian.Uint32(k[12:16])))
	}
	endBank := func(k spillKey) {
		mr := get(binary.BigEndian.Uint32(k[0:4]))
		if mr.ByMode == nil {
			mr.ByMode = make(map[string]int)
		}
		mr.ByMode[bank.mode()]++
		bank.reset()
	}
	bank.reset()
	if err := mergeSets(obs, func(k spillKey) error {
		if have && !sameAddr(prev, k) {
			endAddr(prev)
			if !sameBank(prev, k) {
				endBank(prev)
			}
			addrEpochs = 0
		}
		addrEpochs++
		prev, have = k, true
		return nil
	}); err != nil {
		return nil, err
	}
	if have {
		endAddr(prev)
		endBank(prev)
	}

	// Assemble: every module that appeared in any event is listed,
	// failing or not, sorted by name below.
	r := &Rollup{Schema: RollupSchema, Events: events, Modules: len(names)}
	r.PerModule = make([]ModuleRollup, 0, len(names))
	for id := range names {
		mr := perMod[uint32(id)]
		if mr == nil {
			mr = &ModuleRollup{Module: names[id]}
		}
		mr.Epochs = epochCount[uint32(id)]
		r.Epochs += mr.Epochs
		r.Failures += mr.Failures
		r.Observations += mr.Observations
		r.Transient += mr.Transient
		r.Permanent += mr.Permanent
		if mr.Failures > 0 {
			r.FailingModules++
		}
		for mode, n := range mr.ByMode {
			if r.ByMode == nil {
				r.ByMode = make(map[string]int)
			}
			r.ByMode[mode] += n
		}
		r.PerModule = append(r.PerModule, *mr)
	}
	sort.Slice(r.PerModule, func(i, j int) bool { return r.PerModule[i].Module < r.PerModule[j].Module })
	if len(r.PerModule) == 0 {
		r.PerModule = nil
	}
	return r, nil
}

// close releases spill state. Idempotent; finish calls it.
func (c *classifier) close() {
	for _, s := range c.shards {
		s.obs.cleanup()
		s.epochs.cleanup()
	}
	if c.ownDir && c.spillDir != "" {
		os.RemoveAll(c.spillDir)
		c.spillDir = ""
	}
}

// Analyze classifies a whole log directory: the offline half of the
// analytics pipeline (parborlog, and the daemon's /v1/analytics
// endpoint). It scans the segments on min(GOMAXPROCS, segments,
// MaxKeys) workers, each folding whole segments into its own shard,
// and finish merges the shards. The rollup is the one a single
// classifier fed the log in order would give; so is the error, the
// lowest-numbered failing segment's.
func Analyze(dir string, cfg ClassifierConfig) (*Rollup, error) {
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
	sc := &scan{fsys: cfg.FS, dir: dir, segs: segs, torn: make([]bool, len(segs)), errs: make([]error, len(segs))}
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
	for _, err := range sc.errs {
		if err != nil {
			return nil, err
		}
	}
	r, err := c.finish()
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
	fsys faultfs.FS
	dir  string
	segs []string
	next atomic.Int64
	stop atomic.Int64
	// torn and errs are indexed by segment; each slot is written by the
	// one worker that claimed the segment and read after all are done.
	torn []bool
	errs []error
}

// work claims and folds segments until none is left below stop, then
// seals the shard's residues so the merge finds them sorted.
func (sc *scan) work(sh *shard) {
	var ev Event
	for {
		i := sc.next.Add(1) - 1
		if i >= sc.stop.Load() {
			break
		}
		sc.segment(int(i), sh, &ev)
	}
	sh.obs.seal()
	sh.epochs.seal()
}

// segment folds segment i into sh, decoding into the worker's reused
// ev. A torn tail is recorded and ends the segment; any other failure
// is recorded against the segment and stops the scan.
func (sc *scan) segment(i int, sh *shard, ev *Event) {
	sr, err := openSegment(sc.fsys, filepath.Join(sc.dir, sc.segs[i]))
	if err != nil {
		sc.fail(i, err)
		return
	}
	for err == nil {
		if err = sr.event(ev); err == nil {
			err = sh.observe(ev)
		}
	}
	if _, torn := err.(errTorn); torn {
		sc.torn[i] = true
	} else if err != errSegEnd {
		// Stop the other workers before releasing the segment.
		sc.fail(i, err)
	}
	//parbor:droperr read-side close of a segment whose records are folded or whose error is recorded
	sr.close()
}

// fail records segment i's error and lowers stop to i.
func (sc *scan) fail(i int, err error) {
	sc.errs[i] = err
	for cur := sc.stop.Load(); int64(i) < cur && !sc.stop.CompareAndSwap(cur, int64(i)); cur = sc.stop.Load() {
	}
}
