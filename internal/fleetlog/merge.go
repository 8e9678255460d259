package fleetlog

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"

	"parbor/internal/faultfs"
)

// run is one merge source: a segment summary or spill run on disk, or
// a run in memory (a shard's residue, or a summary that could not be
// written).
type run struct {
	hdr *runHeader
	// path is a spill run's file, which finish opens and the
	// classifier's close removes.
	path string
	// f is the run's open file: a summary's from the moment its bytes
	// were checked or written, a spill run's from finish on.
	f faultfs.File
	// ra serves the run's bytes: f, or the bytes in memory.
	ra io.ReaderAt
	// gid is the global module number of each header entry, set by
	// finish.
	gid []uint32
}

// modRange is a merge worker's share: global modules [lo, hi).
type modRange struct{ lo, hi int }

// finish merges every run — the segment summaries, the shards' spill
// runs and their residues — into the rollup. Modules are numbered
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
	names := numberModules(runs)

	files := 0
	for _, r := range runs {
		if r.path != "" {
			f, err := c.fsys.Open(r.path)
			if err != nil {
				return nil, fmt.Errorf("fleetlog: opening key run: %w", err)
			}
			r.f, r.ra = f, f
		}
		if r.f != nil {
			files++
		}
	}

	// Every merge worker reads each run file through two windows, and
	// all the windows share MaxKeys keys' worth of bytes: there are no
	// more workers than leave every window minWindow bytes. With more
	// than budget/(2*minWindow) run files (2560 at the default MaxKeys)
	// one worker's minimal windows exceed the budget.
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

// cellHeap is a min-heap of merge sources by current cell.
type cellHeap struct {
	srcs []mergeSrc
	idx  []int
}

func (h *cellHeap) less(a, b int) bool {
	return h.srcs[h.idx[a]].cr.at.less(h.srcs[h.idx[b]].cr.at)
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

// countDistinct counts the distinct values of xs. Runs in segment
// order hold ascending epochs, so xs is nearly always sorted already
// and one pass does; otherwise it is sorted first.
func countDistinct(xs []uint32) int {
	n := min(len(xs), 1)
	for i := 1; i < len(xs); i++ {
		switch {
		case xs[i] > xs[i-1]:
			n++
		case xs[i] < xs[i-1]:
			slices.Sort(xs)
			return len(slices.Compact(xs))
		}
	}
	return n
}

// mergeRange folds modules [pr.lo, pr.hi) of every run into their
// rollups, in name order. A module's distinct epochs are counted over
// its epoch blocks; its cells are merged across runs by a heap, and a
// cell's distinct epochs are counted over the runs that hold it (a
// replayed epoch can put one (cell, epoch) in two runs). The cells
// then feed the transient/permanent split and the bank-group fold.
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

		// Distinct epochs.
		if len(active) == 1 {
			s := &srcs[active[0]]
			m := &s.r.hdr.mods[s.at]
			eEnd, _ := s.r.hdr.blockEnds(s.at)
			mr.Epochs = m.epochs
			s.es.skip(eEnd - m.epochAt)
		} else {
			scratch = scratch[:0]
			for _, i := range active {
				s := &srcs[i]
				scratch = s.es.appendEpochs(scratch, s.r.hdr.mods[s.at].epochs)
			}
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
			// In run order, a cell's epochs nearly always ascend.
			slices.Sort(group)
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
			srcs[i].at++
		}
		out = append(out, mr)
	}
	for i := range srcs {
		for _, err := range []error{srcs[i].es.err, srcs[i].cs.err} {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// addMode counts one bank group of mode in mr.
func addMode(mr *ModuleRollup, mode string) {
	if mr.ByMode == nil {
		mr.ByMode = make(map[string]int)
	}
	mr.ByMode[mode]++
}
