package fleetlog

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

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
	// of keys per set). The differential suite runs it down to a few
	// keys; results are identical, only spill traffic changes.
	MaxKeys int
	// SpillDir holds the temporary sorted runs. Empty selects a fresh
	// os.MkdirTemp directory that is removed on Finish/Close.
	SpillDir string
	// FS is the filesystem seam spill runs and (via Analyze) segment
	// reads go through; nil selects the real filesystem.
	FS faultfs.FS
}

// Classifier folds a stream of events into a Rollup with O(modules)
// heap state: per-event keys go into two deduplicating spill sets
// ((module, cell, epoch) observations and (module, epoch) pairs), and
// Finish streams their sorted merge through a constant-state group
// fold. The result is a pure function of the event set — order,
// duplication, segmentation, and memory budget cannot change a byte
// of it.
type Classifier struct {
	cfg      ClassifierConfig
	spillDir string
	ownDir   bool
	modIDs   map[string]uint32
	names    []string
	events   int
	obs      *spillSet
	epochs   *spillSet
	done     bool
}

// NewClassifier builds a classifier; call Close if Finish is never
// reached, or spill files leak.
func NewClassifier(cfg ClassifierConfig) (*Classifier, error) {
	if cfg.MaxKeys <= 0 {
		cfg.MaxKeys = 1 << 20
	}
	dir, own := cfg.SpillDir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "fleetlog-spill-")
		if err != nil {
			return nil, fmt.Errorf("fleetlog: creating spill dir: %w", err)
		}
		dir, own = d, true
	}
	return &Classifier{
		cfg:      cfg,
		spillDir: dir,
		ownDir:   own,
		modIDs:   make(map[string]uint32),
		obs:      newSpillSet(cfg.FS, cfg.MaxKeys, dir, "obs"),
		epochs:   newSpillSet(cfg.FS, cfg.MaxKeys, dir, "epoch"),
	}, nil
}

// modID interns a module name.
func (c *Classifier) modID(name string) (uint32, error) {
	if id, ok := c.modIDs[name]; ok {
		return id, nil
	}
	if len(c.names) >= math.MaxUint32 {
		return 0, fmt.Errorf("fleetlog: module population overflow")
	}
	id := uint32(len(c.names))
	c.modIDs[name] = id
	c.names = append(c.names, name)
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

// Observe folds one event in. Events may arrive in any order and any
// number of times.
func (c *Classifier) Observe(ev Event) error {
	if c.done {
		return fmt.Errorf("fleetlog: classifier already finished")
	}
	if ev.Module == "" {
		return fmt.Errorf("fleetlog: event with empty module id")
	}
	if ev.Epoch < 0 || ev.Epoch > math.MaxUint32 {
		return fmt.Errorf("fleetlog: module %s: epoch %d out of range", ev.Module, ev.Epoch)
	}
	mod, err := c.modID(ev.Module)
	if err != nil {
		return err
	}
	epoch := uint32(ev.Epoch)
	if err := c.epochs.add(packEpoch(mod, epoch)); err != nil {
		return err
	}
	for _, a := range ev.Fails {
		if a.Chip < 0 || a.Bank < 0 || a.Row < 0 || a.Col < 0 {
			return fmt.Errorf("fleetlog: module %s: negative failure coordinate %+v", ev.Module, a)
		}
		if err := c.obs.add(packObs(mod, a, epoch)); err != nil {
			return err
		}
	}
	c.events++
	return nil
}

// bankAgg mirrors the live fleet's per-(chip,bank) grouping state.
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

// mode classifies a finished bank group, identically to the live
// fleet rollup: one cell is a single-bit fault; a multi-cell group
// confined to one row (column) is a single-row (single-column) fault;
// anything else is a scattered multi-cell population.
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

// Finish merges the spill sets and folds the sorted streams into the
// rollup. The classifier is consumed.
func (c *Classifier) Finish() (*Rollup, error) {
	if c.done {
		return nil, fmt.Errorf("fleetlog: classifier already finished")
	}
	c.done = true
	//parbor:droperr classifier close releases scratch spill state re-derived on the next run; the rollup is already merged
	defer c.Close()

	// Distinct completed epochs per module.
	epochCount := make(map[uint32]int, len(c.names))
	if err := c.epochs.merge(func(k spillKey) error {
		epochCount[binary.BigEndian.Uint32(k[0:4])]++
		return nil
	}); err != nil {
		return nil, err
	}

	// Group fold over (module, chip, bank, row, col, epoch)-sorted
	// observations: constant state — the current cell run and the
	// current bank group.
	perMod := make(map[uint32]*ModuleRollup, len(c.names))
	get := func(mod uint32) *ModuleRollup {
		mr := perMod[mod]
		if mr == nil {
			mr = &ModuleRollup{Module: c.names[mod]}
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
	if err := c.obs.merge(func(k spillKey) error {
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
	// failing or not, in canonical (ID) order.
	r := &Rollup{Schema: RollupSchema, Events: c.events, Modules: len(c.names)}
	r.PerModule = make([]ModuleRollup, 0, len(c.names))
	for id := range c.names {
		mr := perMod[uint32(id)]
		if mr == nil {
			mr = &ModuleRollup{Module: c.names[id]}
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

// Close releases spill state. Idempotent; Finish calls it.
func (c *Classifier) Close() error {
	c.obs.cleanup()
	c.epochs.cleanup()
	if c.ownDir && c.spillDir != "" {
		os.RemoveAll(c.spillDir)
		c.spillDir = ""
	}
	return nil
}

// Analyze streams a whole log directory through a classifier: the
// offline half of the analytics pipeline (parborlog, and the
// daemon's /v1/analytics endpoint).
func Analyze(dir string, cfg ClassifierConfig) (*Rollup, error) {
	it, err := OpenIterFS(cfg.FS, dir)
	if err != nil {
		return nil, err
	}
	//parbor:droperr read-side iterator close; every event already streamed or the stream errored
	defer it.Close()
	c, err := NewClassifier(cfg)
	if err != nil {
		return nil, err
	}
	//parbor:droperr classifier close releases scratch spill state; Finish already returned the rollup or an error
	defer c.Close()
	// One event is decoded into over and over: Observe keeps nothing
	// of it but the module name, and strings are immutable.
	var ev Event
	for {
		err := it.nextInto(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := c.Observe(ev); err != nil {
			return nil, err
		}
	}
	r, err := c.Finish()
	if err != nil {
		return nil, err
	}
	r.Truncations = len(it.Truncations())
	return r, nil
}
