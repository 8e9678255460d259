package memctl

import (
	"errors"
	"fmt"
	"strings"
)

// FaultPlane injects controller-side faults into host passes: bus
// glitches, stuck chips, stalled ranks — the transient and permanent
// error modes a field deployment sees in front of the cell array,
// which the cell-level models in internal/faults deliberately do not
// cover. The host consults the plane immediately before every row
// write and row read it issues; a non-nil error aborts the remaining
// work of that chip's shard and fails the pass with a *PassError.
//
// Implementations must be safe for concurrent use (the host shards
// per-chip work across a worker pool) and must be deterministic
// functions of their own seed and the (attempt, row) arguments, never of
// scheduling order — the resilience tests rely on a faulted run being
// exactly reproducible. A plane may also stall inside a hook to model
// shard latency faults; the host tolerates arbitrary hook latency.
//
// A nil plane is the default and costs one nil check per row; the
// fault-free path is bit-identical with or without a plane attached
// (hooks observe, fail, or stall — they never mutate host or chip
// state).
type FaultPlane interface {
	// BeforeWrite is consulted before the host writes row r during
	// the given attempt: the value Attempts() held when the pass
	// started. The attempt counter also advances for failed passes
	// and, with a plane attached, for every ReadRowInto, so a retry
	// sees fresh draws. Returning a non-nil error fails the write.
	BeforeWrite(attempt int, r Row) error
	// BeforeRead is consulted before the host reads row r back, with
	// the same attempt numbering. Returning a non-nil error fails the
	// read.
	BeforeRead(attempt int, r Row) error
}

// transient is the classification interface fault errors implement:
// a transient fault is expected to clear on retry, a non-transient
// one (a dead chip) is not.
type transient interface{ Transient() bool }

// IsTransient reports whether err is classified as transient. For a
// *PassError this is its aggregate classification (every chip fault
// transient). Errors with no classification anywhere (including nil)
// are not transient: a retry policy must not spin on errors it does
// not understand.
func IsTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// ChipFault is one fault-plane rejection, annotated with the chip,
// operation and row the host was driving when the plane fired.
type ChipFault struct {
	Chip int
	Op   string // "write" or "read"
	Row  Row
	Err  error // the fault plane's error
}

// Error implements error.
func (f *ChipFault) Error() string {
	return fmt.Sprintf("memctl: chip %d: %s of bank %d row %d: %v", f.Chip, f.Op, f.Row.Bank, f.Row.Row, f.Err)
}

// Unwrap exposes the plane's error for errors.Is/As.
func (f *ChipFault) Unwrap() error { return f.Err }

// Transient forwards the plane error's classification; an
// unclassified fault is permanent.
func (f *ChipFault) Transient() bool {
	var t transient
	return errors.As(f.Err, &t) && t.Transient()
}

// PassError fails a pass whose per-chip shards hit fault-plane
// rejections. Faults are in ascending chip order with at most one
// fault per chip (a shard aborts at its first fault), so the error a
// faulted pass returns is deterministic regardless of worker
// scheduling.
type PassError struct {
	Faults []*ChipFault
}

// Error implements error.
func (e *PassError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memctl: pass failed on %d chip(s):", len(e.Faults))
	for _, f := range e.Faults {
		fmt.Fprintf(&b, " [%v]", f)
	}
	return b.String()
}

// Transient reports whether every chip fault is transient, i.e.
// whether retrying the whole pass can be expected to succeed.
func (e *PassError) Transient() bool {
	for _, f := range e.Faults {
		if !f.Transient() {
			return false
		}
	}
	return len(e.Faults) > 0
}

// FaultedChips extracts the chip set from a pass or chip fault error,
// for quarantine policies. ok is false when err carries no chip
// attribution.
func FaultedChips(err error) (chips []int, ok bool) {
	var pe *PassError
	if errors.As(err, &pe) {
		chips := make([]int, len(pe.Faults))
		for i, f := range pe.Faults {
			chips[i] = f.Chip
		}
		return chips, true
	}
	var cf *ChipFault
	if errors.As(err, &cf) {
		return []int{cf.Chip}, true
	}
	return nil, false
}
