// Package repair plans the mitigation of detected DRAM failures with
// the standard system-level mechanisms the PARBOR paper lists among
// the optimizations that failure detection enables (Section 1):
// spare-row remapping, SECDED ECC absorption, and fine-grained
// bit-remap entries (ArchShield-style, Nair et al. [59]).
//
// The planner is a deterministic greedy allocator:
//
//  1. Rows whose failure count exceeds what ECC can absorb are
//     candidates for whole-row sparing; the worst rows are spared
//     first, until the spare-row budget runs out.
//  2. In the remaining rows, SECDED ECC absorbs one failing bit per
//     ECC word; the first failure in each word is marked ECC-covered.
//  3. Excess failures (second and later per word) consume bit-remap
//     entries until that budget runs out.
//  4. Anything left is uncovered — the row cannot be used at the
//     targeted refresh interval.
//
// Combined with victim classification (core.ClassifyVictims), the
// planner can exclude purely coupling-driven victims that a
// content-based refresh policy (DC-REF) already protects, which
// shrinks the spare-resource bill — the quantitative version of the
// paper's argument that detection enables cheaper mitigation.
package repair

import (
	"fmt"
	"slices"
	"sort"

	"parbor/internal/core"
	"parbor/internal/memctl"
)

// Budget is the mitigation capacity available to the planner.
type Budget struct {
	// SpareRows is the number of rows that can be remapped to spares.
	SpareRows int
	// RemapEntries is the number of single-bit remap entries
	// (ArchShield-style fault map backed by SRAM/reserved DRAM).
	RemapEntries int
	// ECCBitsPerWord is the number of failing bits a single ECC word
	// can absorb (1 for SECDED, 0 for no ECC).
	ECCBitsPerWord int
	// WordBits is the ECC word size in bits (default 64).
	WordBits int
}

func (b Budget) withDefaults() Budget {
	if b.WordBits == 0 {
		b.WordBits = 64
	}
	return b
}

// Validate reports whether the budget is usable.
func (b Budget) Validate() error {
	b = b.withDefaults()
	if b.SpareRows < 0 || b.RemapEntries < 0 || b.ECCBitsPerWord < 0 {
		return fmt.Errorf("repair: negative budget: %+v", b)
	}
	if b.WordBits <= 0 {
		return fmt.Errorf("repair: non-positive word size %d", b.WordBits)
	}
	return nil
}

// RowRef identifies a row across the module.
type RowRef struct {
	Chip int16
	Bank int16
	Row  int32
}

func rowOf(a memctl.BitAddr) RowRef {
	return RowRef{Chip: a.Chip, Bank: a.Bank, Row: a.Row}
}

// Plan is the mitigation assignment for a failure population.
type Plan struct {
	// SparedRows are remapped to spare rows (all their failures
	// covered).
	SparedRows []RowRef
	// ECCCovered failures are absorbed by per-word ECC capacity.
	ECCCovered []memctl.BitAddr
	// Remapped failures consume bit-remap entries.
	Remapped []memctl.BitAddr
	// Uncovered failures exceed every budget.
	Uncovered []memctl.BitAddr
	// RefreshManaged failures were excluded from the spare-resource
	// plan because a content-aware refresh policy protects them.
	RefreshManaged []memctl.BitAddr

	// sparedFailureCount is the number of individual failures inside
	// the spared rows.
	sparedFailureCount int
}

// CoverageFraction returns mitigated / total for the planned inputs.
func (p *Plan) CoverageFraction() float64 {
	covered := len(p.ECCCovered) + len(p.Remapped) + len(p.RefreshManaged) + p.sparedFailureCount
	total := covered + len(p.Uncovered)
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}

// Options modulate planning.
type Options struct {
	// RefreshManaged, when non-nil, maps failures that a
	// content-aware refresh policy already protects (coupling-driven
	// victims, per core.ClassifyVictims); they are excluded from
	// spare-resource allocation.
	RefreshManaged map[memctl.BitAddr]bool
}

// BuildRefreshManaged derives the refresh-managed set from a victim
// classification: strongly and weakly coupled victims fail only under
// worst-case content, so a DC-REF-style policy can keep their rows
// safe without consuming spare resources. Content-independent and
// unclassified victims still need hard mitigation.
func BuildRefreshManaged(classified []core.ClassifiedVictim) map[memctl.BitAddr]bool {
	out := make(map[memctl.BitAddr]bool)
	for _, c := range classified {
		if c.Kind == core.KindSingle || c.Kind == core.KindPair {
			out[memctl.BitAddr{
				Chip: int16(c.Victim.Row.Chip),
				Bank: int16(c.Victim.Row.Bank),
				Row:  int32(c.Victim.Row.Row),
				Col:  c.Victim.Col,
			}] = true
		}
	}
	return out
}

// MakePlan allocates the budget over the failures.
func MakePlan(failures []memctl.BitAddr, budget Budget, opts Options) (*Plan, error) {
	budget = budget.withDefaults()
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{}

	// Partition out refresh-managed failures first.
	var hard []memctl.BitAddr
	for _, a := range failures {
		if opts.RefreshManaged != nil && opts.RefreshManaged[a] {
			plan.RefreshManaged = append(plan.RefreshManaged, a)
			continue
		}
		hard = append(hard, a)
	}
	slices.SortFunc(plan.RefreshManaged, memctl.CompareAddrs)

	// Group by row.
	byRow := make(map[RowRef][]memctl.BitAddr)
	for _, a := range hard {
		byRow[rowOf(a)] = append(byRow[rowOf(a)], a)
	}

	// Step 1: spare the worst rows — those whose failures would eat
	// the most per-bit resources (more than one failure in some ECC
	// word, or simply the highest counts).
	type rowLoad struct {
		row    RowRef
		addrs  []memctl.BitAddr
		excess int // failures beyond ECC capacity
	}
	var loads []rowLoad
	for row, addrs := range byRow {
		loads = append(loads, rowLoad{
			row:    row,
			addrs:  addrs,
			excess: excessBeyondECC(addrs, budget),
		})
	}
	sort.Slice(loads, func(i, j int) bool {
		a, b := loads[i], loads[j]
		if a.excess != b.excess {
			return a.excess > b.excess
		}
		if len(a.addrs) != len(b.addrs) {
			return len(a.addrs) > len(b.addrs)
		}
		return lessRow(a.row, b.row)
	})
	spared := make(map[RowRef]bool)
	sparedFailures := 0
	for _, l := range loads {
		if len(plan.SparedRows) >= budget.SpareRows {
			break
		}
		if l.excess == 0 {
			break // remaining rows are fully ECC-absorbable
		}
		plan.SparedRows = append(plan.SparedRows, l.row)
		spared[l.row] = true
		sparedFailures += len(l.addrs)
	}
	sort.Slice(plan.SparedRows, func(i, j int) bool { return lessRow(plan.SparedRows[i], plan.SparedRows[j]) })

	// Steps 2-4: per surviving row, ECC absorbs the first failures of
	// each word, remap entries take the overflow, the rest is
	// uncovered.
	remapLeft := budget.RemapEntries
	var rows []RowRef
	for row := range byRow {
		if !spared[row] {
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
	for _, row := range rows {
		addrs := byRow[row]
		slices.SortFunc(addrs, memctl.CompareAddrs)
		perWord := make(map[int32]int)
		for _, a := range addrs {
			word := a.Col / int32(budget.WordBits)
			if perWord[word] < budget.ECCBitsPerWord {
				perWord[word]++
				plan.ECCCovered = append(plan.ECCCovered, a)
				continue
			}
			if remapLeft > 0 {
				remapLeft--
				plan.Remapped = append(plan.Remapped, a)
				continue
			}
			plan.Uncovered = append(plan.Uncovered, a)
		}
	}
	plan.sparedFailureCount = sparedFailures
	return plan, nil
}

// excessBeyondECC counts the failures of a row that per-word ECC
// capacity cannot absorb.
func excessBeyondECC(addrs []memctl.BitAddr, budget Budget) int {
	perWord := make(map[int32]int)
	for _, a := range addrs {
		perWord[a.Col/int32(budget.WordBits)]++
	}
	excess := 0
	for _, n := range perWord {
		if n > budget.ECCBitsPerWord {
			excess += n - budget.ECCBitsPerWord
		}
	}
	return excess
}

func lessRow(a, b RowRef) bool {
	if a.Chip != b.Chip {
		return a.Chip < b.Chip
	}
	if a.Bank != b.Bank {
		return a.Bank < b.Bank
	}
	return a.Row < b.Row
}
