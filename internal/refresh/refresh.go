// Package refresh implements the refresh-rate policies evaluated in
// Section 8 of the PARBOR paper:
//
//   - Uniform: every row refreshed at the nominal 64 ms interval
//     (the DDR3 baseline).
//   - RAIDR: rows containing weak (low-retention) cells refreshed at
//     64 ms, all other rows at 256 ms (Liu et al., ISCA 2012).
//   - DC-REF: the paper's contribution — a weak row is refreshed at
//     64 ms only while its data content matches the worst-case
//     pattern of one of its vulnerable cells (checked on writes,
//     using the neighbor locations PARBOR provides); weak rows whose
//     content is benign drop to 256 ms like everyone else.
//
// The paper's numbers follow directly from the row fractions: with
// 16.4% weak rows and on average 2.7% of rows matching the worst-case
// pattern, DC-REF issues 0.027 + 0.973/4 = 27.0% of the baseline's
// refreshes (-73%), which is 27.6% fewer than RAIDR's
// 0.164 + 0.836/4 = 37.3%.
package refresh

import (
	"fmt"

	"parbor/internal/rng"
)

// Kind selects a refresh policy.
type Kind int

// The three policies of Figure 16.
const (
	Uniform Kind = iota + 1
	RAIDR
	DCREF
)

// String returns the policy name used in experiment output.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "baseline-64ms"
	case RAIDR:
		return "RAIDR"
	case DCREF:
		return "DC-REF"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the policies in evaluation order.
func Kinds() []Kind { return []Kind{Uniform, RAIDR, DCREF} }

// Config parameterizes a policy instance.
type Config struct {
	Kind Kind
	// TotalRows is the number of DRAM rows the policy manages.
	TotalRows int64
	// WeakRowFrac is the fraction of rows containing at least one
	// weak cell (the paper measures 16.4% on real chips).
	WeakRowFrac float64
	// InitialMatchProb is the probability that a weak row's resident
	// data matches the worst-case pattern when the system starts
	// (DC-REF only). The paper measures 16.5% of weak rows matching
	// on average over SPEC (2.7% of all rows).
	InitialMatchProb float64
	// Seed fixes the weak-row draw.
	Seed uint64
}

// Policy tracks which rows currently require the fast refresh
// interval and answers the aggregate queries the refresh engine
// needs.
//
// Policy is not safe for concurrent use.
type Policy struct {
	cfg      Config
	nFast    int64          // rows currently on the fast interval
	override map[int64]bool // DC-REF: matched-state set by writes
	src      *rng.Source    // deterministic draws
}

// New builds a policy and populates its weak-row structures.
func New(cfg Config) (*Policy, error) {
	if cfg.TotalRows <= 0 {
		return nil, fmt.Errorf("refresh: TotalRows must be positive, got %d", cfg.TotalRows)
	}
	if cfg.WeakRowFrac < 0 || cfg.WeakRowFrac > 1 {
		return nil, fmt.Errorf("refresh: WeakRowFrac %v out of [0,1]", cfg.WeakRowFrac)
	}
	if cfg.InitialMatchProb < 0 || cfg.InitialMatchProb > 1 {
		return nil, fmt.Errorf("refresh: InitialMatchProb %v out of [0,1]", cfg.InitialMatchProb)
	}
	switch cfg.Kind {
	case Uniform, RAIDR, DCREF:
	default:
		return nil, fmt.Errorf("refresh: unknown policy kind %d", int(cfg.Kind))
	}
	p := &Policy{cfg: cfg, override: make(map[int64]bool), src: rng.New(cfg.Seed)}
	if cfg.Kind == Uniform {
		p.nFast = cfg.TotalRows
		return p, nil
	}
	for row := int64(0); row < cfg.TotalRows; row++ {
		if !p.isWeakDraw(row) {
			continue
		}
		switch cfg.Kind {
		case RAIDR:
			p.nFast++
		case DCREF:
			if p.initialMatch(row) {
				p.nFast++
			}
		}
	}
	return p, nil
}

// isWeakDraw is the weak-row membership (deterministic per seed).
func (p *Policy) isWeakDraw(row int64) bool {
	return p.src.SplitN("weak", uint64(row)).Float64() < p.cfg.WeakRowFrac
}

// initialMatch is the primed content state of a weak row: whether the
// data resident at system start matches the worst-case pattern.
func (p *Policy) initialMatch(row int64) bool {
	return p.src.SplitN("match0", uint64(row)).Float64() < p.cfg.InitialMatchProb
}

// TotalRows returns the number of managed rows.
func (p *Policy) TotalRows() int64 { return p.cfg.TotalRows }

// FastRows returns the number of rows currently refreshed at the fast
// (64 ms) interval. The remaining rows use the slow (256 ms) one.
func (p *Policy) FastRows() int64 { return p.nFast }

// matched returns the current content-match state of a weak row.
func (p *Policy) matched(row int64) bool {
	if m, ok := p.override[row]; ok {
		return m
	}
	return p.initialMatch(row)
}

// OnWrite notifies the policy that new data was written to row. For
// DC-REF this is the content check of Section 8: with probability
// matchProb (a property of the writing application's data), the new
// content recreates the worst-case pattern at one of the row's
// vulnerable cells; otherwise the row drops to the slow interval.
// writeSeq must increase across writes to the same row so repeated
// writes re-draw the content.
func (p *Policy) OnWrite(row int64, matchProb float64, writeSeq uint64) {
	if p.cfg.Kind != DCREF {
		return
	}
	if !p.isWeakDraw(row) {
		return // content of strong rows never forces fast refresh
	}
	old := p.matched(row)
	now := p.src.SplitN("write", uint64(row)).SplitN("seq", writeSeq).Float64() < matchProb
	if old == now {
		return
	}
	p.override[row] = now
	if now {
		p.nFast++
	} else {
		p.nFast--
	}
}

// RowsDuePerTick returns the expected number of row refreshes the
// engine must perform in one tREFI slot, given slotsPerInterval tREFI
// slots per fast interval (8192 for DDR3) and slowRatio (4: 256 ms /
// 64 ms). Fast rows are refreshed every interval, slow rows every
// slowRatio intervals.
func (p *Policy) RowsDuePerTick(slotsPerInterval, slowRatio int) float64 {
	fast := float64(p.nFast)
	slow := float64(p.cfg.TotalRows - p.nFast)
	return fast/float64(slotsPerInterval) + slow/float64(slotsPerInterval*slowRatio)
}
