package onlinetest

import (
	"fmt"
	"slices"

	"parbor/internal/memctl"
	"parbor/internal/obs"
)

// State is the scheduler's complete serializable progress: everything
// needed to rebuild a Scheduler that continues a sweep exactly where
// this one stopped. The checkpoint layer (internal/checkpoint) wraps
// it together with the module's simulation clocks into the
// parbor/checkpoint/v1 snapshot.
type State struct {
	// Config rebuilds the pattern set and epoch budget. Distances are
	// part of it, so a resumed run does not need to re-detect.
	Config Config `json:"config"`
	// Cursor/Rounds/Tests mirror the scheduler's sweep progress.
	Cursor int `json:"cursor"`
	Rounds int `json:"rounds"`
	Tests  int `json:"tests"`
	// EverSeen and SweepSeen are the failure sets, in canonical
	// (chip, bank, row, col) order so the encoding is deterministic.
	EverSeen  []memctl.BitAddr `json:"ever_seen"`
	SweepSeen []memctl.BitAddr `json:"sweep_seen"`
	// Quarantined chips, ascending.
	Quarantined []int `json:"quarantined,omitempty"`
	// Retries and DegradedEpochs carry the resilience totals across
	// the interruption.
	Retries        int `json:"retries,omitempty"`
	DegradedEpochs int `json:"degraded_epochs,omitempty"`
	// Epochs is the completed-epoch count, the unit the fleet
	// scheduler budgets in.
	Epochs int `json:"epochs,omitempty"`
}

// State exports the scheduler's progress without copying the failure
// sets: EverSeen and SweepSeen are views of the scheduler's own
// canonical slices, capped at their length, so exporting a checkpoint
// after every epoch costs O(1) however many failures are known. The
// contract that makes the sharing safe:
//
//   - the scheduler never writes an element below any length it has
//     published — later epochs append past it or merge into a fresh
//     array — so a returned State stays valid and unchanged while the
//     scheduler keeps running, and may be read from another goroutine;
//   - the capacity cap means a caller's append reallocates rather than
//     writing into the scheduler's spare capacity;
//   - callers must not write the elements in place; Resume copies, so
//     schedulers resumed from one State share nothing.
//
// Everything else in the State is a copy.
func (s *Scheduler) State() State {
	cfg := s.cfg
	cfg.Distances = append([]int(nil), s.cfg.Distances...)
	return State{
		Config:         cfg,
		Cursor:         s.cursor,
		Rounds:         s.rounds,
		Tests:          s.tests,
		EverSeen:       s.everSeen[:len(s.everSeen):len(s.everSeen)],
		SweepSeen:      s.sweepSeen[:len(s.sweepSeen):len(s.sweepSeen)],
		Quarantined:    s.Quarantined(),
		Retries:        s.retries,
		DegradedEpochs: s.degraded,
		Epochs:         s.epochs,
	}
}

// Resume rebuilds a scheduler from exported State against a freshly
// constructed host. The host must wrap a module with the same
// geometry the state was captured from; Resume checks what it can
// (cursor range) and trusts the checkpoint layer for the rest.
func Resume(host *memctl.Host, st State) (*Scheduler, error) {
	s, err := New(host, st.Config)
	if err != nil {
		return nil, err
	}
	if st.Cursor < 0 || st.Cursor >= len(s.rows) {
		return nil, fmt.Errorf("onlinetest: resume cursor %d outside module's %d rows", st.Cursor, len(s.rows))
	}
	if st.Rounds < 0 || st.Tests < 0 || st.Retries < 0 || st.DegradedEpochs < 0 || st.Epochs < 0 {
		return nil, fmt.Errorf("onlinetest: negative resume progress counters")
	}
	s.cursor = st.Cursor
	s.rounds = st.Rounds
	s.tests = st.Tests
	s.retries = st.Retries
	s.degraded = st.DegradedEpochs
	s.epochs = st.Epochs
	s.everSeen = canonicalCopy(st.EverSeen)
	s.sweepSeen = canonicalCopy(st.SweepSeen)
	for _, c := range st.Quarantined {
		if c < 0 || c >= host.Chips() {
			return nil, fmt.Errorf("onlinetest: resume quarantines chip %d outside module's %d chips", c, host.Chips())
		}
		s.quarantined[c] = struct{}{}
	}
	// Inherited quarantine must be declared to the new incarnation's
	// recorder: its epochs will report partial coverage (the skipped
	// rows of chips quarantined before the interruption) without any
	// chaos fault of their own, and Report.Reconcile only excuses that
	// when this counter explains it.
	if len(st.Quarantined) > 0 {
		if rec := host.Recorder(); rec != nil {
			rec.Add(obs.CounterInheritedQuarantine, uint64(len(st.Quarantined)))
		}
	}
	return s, nil
}

// sortedDistinct sorts addrs canonically and drops repeats, in place.
func sortedDistinct(addrs []memctl.BitAddr) []memctl.BitAddr {
	slices.SortFunc(addrs, memctl.CompareAddrs)
	return slices.Compact(addrs)
}

// canonicalCopy returns a fresh, non-nil, sorted and distinct copy of
// a failure set. Sets exported by State are canonical already; the
// sort only matters for hand-built states.
func canonicalCopy(addrs []memctl.BitAddr) []memctl.BitAddr {
	out := append([]memctl.BitAddr{}, addrs...)
	if !slices.IsSortedFunc(out, memctl.CompareAddrs) {
		return sortedDistinct(out)
	}
	return slices.Compact(out)
}

// union returns set ∪ add for two sorted, distinct failure sets, and
// the cells of add that set lacked (in canonical order; it may alias
// the result, so callers that hand it out must copy it). Cells already
// in set cost a binary search each, so the work is O(len(add) log
// len(set)) plus the cost of placing the new cells.
//
// union never writes below len(set) in set's backing array, which is
// what lets State share the sets: when every new cell sorts after
// set's last one — the common case, since an epoch tests rows in
// canonical order — they are appended; otherwise the result is merged
// into a fresh array.
func union(set, add []memctl.BitAddr) (merged, added []memctl.BitAddr) {
	n := len(set)
	if len(add) == 0 {
		return set, nil
	}
	if n == 0 || memctl.CompareAddrs(set[n-1], add[0]) < 0 {
		merged = append(set, add...)
		return merged, merged[n:]
	}
	lo := 0
	for _, a := range add {
		i, found := slices.BinarySearchFunc(set[lo:], a, memctl.CompareAddrs)
		lo += i
		if !found {
			added = append(added, a)
		}
	}
	if len(added) == 0 {
		return set, nil
	}
	if memctl.CompareAddrs(set[n-1], added[0]) < 0 {
		return append(set, added...), added
	}
	merged = make([]memctl.BitAddr, 0, n+len(added))
	i := 0
	for _, a := range added {
		j, _ := slices.BinarySearchFunc(set[i:], a, memctl.CompareAddrs)
		merged = append(merged, set[i:i+j]...)
		merged = append(merged, a)
		i += j
	}
	merged = append(merged, set[i:]...)
	return merged, added
}
