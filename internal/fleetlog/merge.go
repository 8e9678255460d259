package fleetlog

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"parbor/internal/faultfs"
)

// run is one merge source: a segment summary or spill run on disk, or
// a run in memory (a shard's residue, or a summary that could not be
// written).
type run struct {
	hdr *runHeader
	// f is a summary's open file, from the moment its bytes were
	// checked or written; the classifier's close closes it.
	f faultfs.File
	// ra serves the run's bytes: f, a section of its shard's spill
	// file, or the bytes in memory.
	ra io.ReaderAt
	// seg is the segment the run comes from: a summary's own, and for
	// a spill run or a residue the highest segment decoded into its
	// builder. finish merges the runs in this order.
	seg int
	// gid is the global module number of each header entry, set by
	// finish.
	gid []uint32
}

// modRange is a merge worker's share: global modules [lo, hi).
type modRange struct{ lo, hi int }

// finish merges every run — the segment summaries, the shards' spill
// runs and their residues — into the rollup, in segment order, so a
// module's epoch blocks and a cell's epoch lists arrive ascending
// wherever the log's epochs ascend. Modules are numbered
// globally in name order, which every run's module order agrees with,
// and split into up to GOMAXPROCS contiguous ranges of about equal
// bytes; each merge worker folds its range of every run, module by
// module, and the ranges concatenate in name order. The classifier is
// consumed.
func (c *classifier) finish(ctx context.Context) (*Rollup, error) {
	if c.done {
		return nil, fmt.Errorf("fleetlog: classifier already finished")
	}
	c.done = true
	defer c.close()

	var runs []*run
	events := 0
	for _, s := range c.shards {
		s.seal()
		events += s.events
		runs = append(runs, s.runs...)
	}
	slices.SortStableFunc(runs, func(a, b *run) int { return cmp.Compare(a.seg, b.seg) })
	names := numberModules(runs)

	files := 0
	for _, r := range runs {
		if _, inMem := r.ra.(memReaderAt); !inMem {
			files++
		}
	}

	// Every merge worker reads each run on disk through two windows,
	// and all the windows share MaxKeys keys' worth of bytes: there are
	// no more workers than leave every window minWindow bytes. With
	// more than budget/(2*minWindow) runs on disk (2560 at the default
	// MaxKeys) one worker's minimal windows exceed the budget.
	budget := c.maxKeys * keyBytes
	procs := min(runtime.GOMAXPROCS(0), budget/max(1, 2*files*minWindow))
	parts := partition(runs, len(names), max(1, procs))
	window := min(budget/max(1, 2*len(parts)*files), 64<<10)
	out := make([][]ModuleRollup, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for k, pr := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k], errs[k] = mergeRange(ctx, runs, names, pr, window)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	r := &Rollup{Schema: RollupSchema, Events: events, Modules: len(names)}
	for _, part := range out {
		for _, mr := range part {
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
			r.PerModule = append(r.PerModule, mr)
		}
	}
	return r, nil
}

// numberModules numbers the union of the runs' modules in name order,
// sets each run's gid, and returns the names by number.
func numberModules(runs []*run) []string {
	ids := make(map[string]uint32)
	var names []string
	for _, r := range runs {
		for _, m := range r.hdr.mods {
			if _, ok := ids[m.name]; !ok {
				ids[m.name] = 0
				names = append(names, m.name)
			}
		}
	}
	sort.Strings(names)
	for i, name := range names {
		ids[name] = uint32(i)
	}
	for _, r := range runs {
		r.gid = make([]uint32, len(r.hdr.mods))
		for i, m := range r.hdr.mods {
			r.gid[i] = ids[m.name]
		}
	}
	return names
}

// partition splits modules [0, n) into at most p contiguous ranges
// holding about equal run bytes.
func partition(runs []*run, n, p int) []modRange {
	w := make([]int64, n)
	var total int64
	for _, r := range runs {
		for i, m := range r.hdr.mods {
			eEnd, cEnd := r.hdr.blockEnds(i)
			w[r.gid[i]] += eEnd - m.epochAt + cEnd - m.cellAt
		}
	}
	for g := range w {
		w[g]++ // a module costs something even with few keys
		total += w[g]
	}
	var parts []modRange
	var acc int64
	lo := 0
	for g := range w {
		acc += w[g]
		if acc*int64(p) >= total*int64(len(parts)+1) {
			parts = append(parts, modRange{lo, g + 1})
			lo = g + 1
		}
	}
	return parts
}

// mergeSrc is one run's cursor in a merge worker: the header entries
// [at, end) of its range, and its two sections.
type mergeSrc struct {
	r       *run
	at, end int
	es, cs  section
	cr      cellReader
}

// cellHeap is a min-heap of merge sources by current cell, then by
// source index: a cell's sources pop in run order.
type cellHeap struct {
	srcs []mergeSrc
	idx  []int
}

func (h *cellHeap) less(a, b int) bool {
	i, j := h.idx[a], h.idx[b]
	if x, y := h.srcs[i].cr.at, h.srcs[j].cr.at; x != y {
		return x.less(y)
	}
	return i < j
}

func (h *cellHeap) push(i int) {
	h.idx = append(h.idx, i)
	for j := len(h.idx) - 1; j > 0; {
		parent := (j - 1) / 2
		if !h.less(j, parent) {
			break
		}
		h.idx[j], h.idx[parent] = h.idx[parent], h.idx[j]
		j = parent
	}
}

func (h *cellHeap) pop() int {
	top := h.idx[0]
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	for j := 0; ; {
		m := j
		if l := 2*j + 1; l < n && h.less(l, m) {
			m = l
		}
		if r := 2*j + 2; r < n && h.less(r, m) {
			m = r
		}
		if m == j {
			break
		}
		h.idx[j], h.idx[m] = h.idx[m], h.idx[j]
		j = m
	}
	return top
}

// countDistinct counts the distinct values of xs. finish merges the
// runs in segment order and a cell's runs pop in that order, so xs
// concatenates the epoch lists of ascending segments: wherever the
// log's epochs ascend, xs is sorted and one pass counts it. Only a log
// whose epochs arrive out of order (an old epoch logged in a later
// segment) takes the sort, which distinctSorts counts.
func countDistinct(xs []uint32) int {
	n := min(len(xs), 1)
	for i := 1; i < len(xs); i++ {
		switch {
		case xs[i] > xs[i-1]:
			n++
		case xs[i] < xs[i-1]:
			distinctSorts.Add(1)
			slices.Sort(xs)
			return len(slices.Compact(xs))
		}
	}
	return n
}

// distinctSorts counts countDistinct's sorts, for the tests.
var distinctSorts atomic.Int64

// mergeRange folds modules [pr.lo, pr.hi) of every run into their
// rollups, in name order. A module's distinct epochs are counted over
// its epoch blocks; its cells are merged across runs by a heap, and a
// cell's distinct epochs are counted over the runs that hold it (a
// replayed epoch can put one (cell, epoch) in two runs). The cells
// then feed the transient/permanent split and the bank-group fold.
// Every block is decoded once, here, as strictly as the format is
// defined: a run that does not decode fails the merge (endModule).
func mergeRange(ctx context.Context, runs []*run, names []string, pr modRange, window int) ([]ModuleRollup, error) {
	srcs := make([]mergeSrc, 0, len(runs))
	for _, r := range runs {
		a := sort.Search(len(r.gid), func(i int) bool { return int(r.gid[i]) >= pr.lo })
		b := sort.Search(len(r.gid), func(i int) bool { return int(r.gid[i]) >= pr.hi })
		if a == b {
			continue
		}
		srcs = append(srcs, mergeSrc{r: r, at: a, end: b})
		s := &srcs[len(srcs)-1]
		eEnd, cEnd := r.hdr.blockEnds(b - 1)
		s.es.open(r.ra, r.hdr.mods[a].epochAt, eEnd, window)
		s.cs.open(r.ra, r.hdr.mods[a].cellAt, cEnd, window)
	}
	h := cellHeap{srcs: srcs}
	var active, group []int
	var scratch []uint32
	out := make([]ModuleRollup, 0, pr.hi-pr.lo)
	for g := pr.lo; g < pr.hi; g++ {
		if (g-pr.lo)%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		active = active[:0]
		for i := range srcs {
			if s := &srcs[i]; s.at < s.end && int(s.r.gid[s.at]) == g {
				active = append(active, i)
			}
		}
		mr := ModuleRollup{Module: names[g]}

		// Distinct epochs: one run's epochs of a module are distinct.
		scratch = scratch[:0]
		for _, i := range active {
			s := &srcs[i]
			scratch = s.es.appendEpochs(scratch, s.r.hdr.mods[s.at].epochs)
		}
		mr.Epochs = len(scratch)
		if len(active) > 1 {
			mr.Epochs = countDistinct(scratch)
		}

		// Cells, merged across runs.
		for _, i := range active {
			s := &srcs[i]
			if s.cr.start(&s.cs, s.r.hdr.mods[s.at].cells); s.cr.next() {
				h.push(i)
			}
		}
		var bank bankAgg
		bank.reset()
		prev := cell{chip: -1}
		for len(h.idx) > 0 {
			first := h.pop()
			at := srcs[first].cr.at
			group = append(group[:0], first)
			for len(h.idx) > 0 && srcs[h.idx[0]].cr.at == at {
				group = append(group, h.pop())
			}
			scratch = scratch[:0]
			for _, i := range group {
				s := &srcs[i]
				scratch = s.cs.appendEpochs(scratch, s.cr.epochs)
			}
			n := len(scratch) // one run's epochs of a cell are distinct
			if len(group) > 1 {
				n = countDistinct(scratch)
			}
			for _, i := range group {
				if srcs[i].cr.next() {
					h.push(i)
				}
			}

			mr.Failures++
			mr.Observations += n
			if n >= 2 {
				mr.Permanent++
			} else {
				mr.Transient++
			}
			if prev.chip >= 0 && (at.chip != prev.chip || at.bank != prev.bank) {
				addMode(&mr, bank.mode())
				bank.reset()
			}
			bank.addAddr(int32(at.row), int32(at.col))
			prev = at
		}
		if prev.chip >= 0 {
			addMode(&mr, bank.mode())
		}
		for _, i := range active {
			if err := srcs[i].endModule(); err != nil {
				return nil, err
			}
		}
		out = append(out, mr)
	}
	return out, nil
}

// endModule moves s past its current module once the module's blocks
// are decoded, and fails if they did not end exactly where the header
// ends them. The merge is the one decoder of a run's blocks (checkRun
// reads only the header and the CRC), so this is what rejects a block
// that decodes into its neighbour's bytes, or stops short of its end.
// A summary that fails here has a valid CRC, so it can only come from
// a writer bug or a crafted file; the query fails with its name.
func (s *mergeSrc) endModule() error {
	eEnd, cEnd := s.r.hdr.blockEnds(s.at)
	s.at++
	err := cmp.Or(s.es.err, s.cs.err)
	if err == nil && (s.es.pos() != eEnd || s.cs.pos() != cEnd) {
		err = errRun
	}
	if err != nil && s.r.f != nil {
		return fmt.Errorf("fleetlog: %s: %w", filepath.Base(s.r.f.Name()), err)
	}
	return err
}

// addMode counts one bank group of mode in mr.
func addMode(mr *ModuleRollup, mode string) {
	if mr.ByMode == nil {
		mr.ByMode = make(map[string]int)
	}
	mr.ByMode[mode]++
}
