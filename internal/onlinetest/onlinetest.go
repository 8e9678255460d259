// Package onlinetest schedules PARBOR-style data-dependent failure
// testing while the system is in operation — the deployment setting
// the paper targets ("detect and mitigate DRAM failures in the field,
// while the system is under operation", Section 1).
//
// Testing a region requires writing test patterns over it, so live
// data must survive. The scheduler works in epochs: each epoch it
// picks the next slice of rows (round-robin over the module), saves
// their contents through the memory controller, runs the
// neighbor-aware worst-case patterns against just those rows, restores
// the contents, and accumulates the discovered failures. The epoch
// budget bounds how many rows are out of service at a time, so the
// performance impact per refresh window stays fixed and full-module
// coverage builds up over many epochs.
//
// Because cells fail and recover over time (VRT, Section 5.2.1), the
// scheduler keeps testing after full coverage: a round counter tracks
// complete sweeps, and the failure set distinguishes everything ever
// seen from what the most recent sweep saw.
//
// The scheduler is also where the repository's resilience policies
// live, because the field — per the DDR4 field studies — delivers
// transient controller errors, intermittent chips, and operator
// interruptions, not just clean passes:
//
//   - Transient pass errors (memctl.IsTransient) are retried up to
//     Config.MaxRetries times with optional backoff.
//   - Chips that fail permanently (or exhaust their retries) are
//     quarantined: their rows are skipped for the rest of the run and
//     each epoch that loses rows this way reports Degraded partial
//     coverage instead of failing the whole module.
//   - RunEpoch is transactional about live data: the saved row
//     contents are restored on every exit path (including error and
//     cancellation paths, via defer on an uncancelable context), and
//     bits that could not be verifiably restored are surfaced in the
//     EpochResult rather than silently dropped.
//   - The full scheduler state is exportable (State) and rebuildable
//     (Resume), which is what the checkpoint layer serializes.
package onlinetest

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/patterns"
)

// Config tunes the scheduler.
type Config struct {
	// Distances is the neighbor-distance set from a prior PARBOR
	// detection run.
	Distances []int
	// ChunkBits is the scrambling chunk size (128 for the vendor
	// profiles).
	ChunkBits int
	// RowsPerEpoch is how many rows are taken out of service and
	// tested per epoch. Default 8.
	RowsPerEpoch int
	// MaxRetries bounds how many times one failing operation (a test
	// pass, a save read, a restore pass) is retried when its error is
	// transient. Default 2. Non-transient errors are never retried.
	MaxRetries int
	// RetryBackoff is slept between retry attempts (real time; the
	// simulated retention clock does not advance). Default 0.
	RetryBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.RowsPerEpoch == 0 {
		c.RowsPerEpoch = 8
	}
	if c.ChunkBits == 0 {
		c.ChunkBits = 128
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	return c
}

// Validate rejects configurations outside the scheduler's domain,
// mirroring faults.Config.Validate. Zero values are legal (defaults
// fill them in); negatives and an empty distance set are not.
func (c Config) Validate() error {
	if len(c.Distances) == 0 {
		return fmt.Errorf("onlinetest: empty distance set")
	}
	if c.RowsPerEpoch < 0 {
		return fmt.Errorf("onlinetest: negative RowsPerEpoch %d", c.RowsPerEpoch)
	}
	if c.ChunkBits < 0 {
		return fmt.Errorf("onlinetest: negative ChunkBits %d", c.ChunkBits)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("onlinetest: negative MaxRetries %d", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("onlinetest: negative RetryBackoff %v", c.RetryBackoff)
	}
	return nil
}

// Scheduler runs online test epochs against a module.
type Scheduler struct {
	host *memctl.Host
	cfg  Config
	pats []patterns.Pattern

	rows   []memctl.Row
	cursor int
	rounds int

	// everSeen and sweepSeen are the failure sets, each kept sorted in
	// canonical (chip, bank, row, col) order and free of duplicates, so
	// that an epoch folds its few new cells in without re-sorting and
	// State can hand them out without copying. Published prefixes are
	// never written again: new cells are either appended past every
	// length State has returned or merged into a fresh array (see
	// union).
	everSeen  []memctl.BitAddr
	sweepSeen []memctl.BitAddr
	tests     int

	quarantined map[int]struct{}
	retries     int
	degraded    int

	// epochs counts successfully completed epochs. It is the
	// scheduler's schedulable-unit clock: the fleet layer (package
	// fleet) budgets and compares runs in epochs, and a resumed
	// scheduler must continue the count rather than restart it.
	epochs int

	// patRows holds one materialized row per pattern (parallel to
	// pats), which every row under test aliases.
	patRows [][]uint64
	scratch epochScratch

	// passObserved, when non-nil, sees each successful test pass's
	// failures as the host returned them. It is set only by the
	// package's tests (export_test.go): an aborted epoch returns no
	// result, yet the cells its completed passes saw are folded into
	// the failure sets, and only the raw pass output lets a reference
	// model check that fold.
	passObserved func([]memctl.BitAddr)
}

// epochScratch holds the buffers every epoch reuses. Nothing in it
// outlives an epoch: whatever an epoch returns or folds into the
// failure sets is copied out first.
type epochScratch struct {
	// saved holds the live contents of the rows under test, one
	// buffer per row, in the order of the epoch's tested rows.
	saved [][]uint64
	// data is the per-pass row-data slice handed to the host.
	data [][]uint64
	// obs collects every failure the epoch's passes report,
	// repeats included, until the epoch sorts and deduplicates it.
	obs []memctl.BitAddr
}

// New builds a scheduler.
func New(host *memctl.Host, cfg Config) (*Scheduler, error) {
	if host == nil {
		return nil, fmt.Errorf("onlinetest: nil host")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	base, err := patterns.NeighborAware(cfg.Distances, cfg.ChunkBits)
	if err != nil {
		return nil, fmt.Errorf("onlinetest: building patterns: %w", err)
	}
	pats := make([]patterns.Pattern, 0, 2*len(base))
	for _, p := range base {
		pats = append(pats, p, p.Inverse())
	}

	g := host.Geometry()
	rows := make([]memctl.Row, 0, host.Chips()*g.RowCount())
	for chip := 0; chip < host.Chips(); chip++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				rows = append(rows, memctl.Row{Chip: chip, Bank: bank, Row: row})
			}
		}
	}
	// Every neighbor-aware pattern (and its inverse) is Uniform — the
	// same data in every row — and the pattern set never changes, so
	// each is materialized once for the scheduler's lifetime. The host
	// only reads pass data (memctl.Host.Pass's aliasing contract), so
	// one row can back every row under test in every epoch.
	patRows := make([][]uint64, len(pats))
	for i, p := range pats {
		patRows[i] = make([]uint64, g.Words())
		p.Fill(0, 0, 0, patRows[i])
	}
	return &Scheduler{
		host:        host,
		cfg:         cfg,
		pats:        pats,
		patRows:     patRows,
		rows:        rows,
		everSeen:    []memctl.BitAddr{},
		sweepSeen:   []memctl.BitAddr{},
		quarantined: make(map[int]struct{}),
	}, nil
}

// EpochResult summarizes one epoch.
type EpochResult struct {
	// RowsTested is the slice of rows taken out of service and
	// actually tested this epoch (quarantine-skipped rows excluded).
	RowsTested []memctl.Row
	// NewFailures are failures not seen in any earlier epoch, in
	// canonical (chip, bank, row, col) order.
	NewFailures []memctl.BitAddr
	// Observed are all distinct failures seen this epoch — repeats of
	// previously known failures included — in canonical (chip, bank,
	// row, col) order. Repeat observation across epochs is what the
	// fleet's event log uses to separate permanent faults from
	// transient ones, so NewFailures alone would not do.
	Observed []memctl.BitAddr
	// Tests is the number of successful passes this epoch.
	Tests int
	// SweepCompleted reports whether this epoch finished a full
	// module sweep.
	SweepCompleted bool

	// Retries is how many retry attempts transient faults consumed.
	Retries int
	// Quarantined lists chips newly quarantined during this epoch.
	Quarantined []int
	// SkippedRows are rows in the epoch's slice that were not tested
	// because their chip was already quarantined when the epoch began.
	SkippedRows []memctl.Row
	// Degraded reports partial coverage: some of the slice was skipped
	// or abandoned because of quarantined chips.
	Degraded bool
	// RestoreMismatch lists bits whose restored value did not read
	// back as the saved live data — a live-data integrity loss the
	// caller must know about.
	RestoreMismatch []memctl.BitAddr
	// UnrestoredRows lists rows whose restore could not be completed
	// at all (their chip died): their live data is gone.
	UnrestoredRows []memctl.Row
}

// RunEpoch takes the next row slice out of service, tests it with
// every worst-case pattern, restores its contents, and returns what
// it found. Live data in the tested rows is preserved exactly on the
// fault-free path, and best-effort (with explicit accounting in the
// result) under injected faults.
//
// A done ctx aborts the epoch's remaining passes, but the saved live
// data is still restored (the restore runs on an uncancelable context)
// before the error returns; the cursor does not advance, so the epoch
// can be re-run after a resume.
func (s *Scheduler) RunEpoch(ctx context.Context) (result *EpochResult, err error) {
	n := s.cfg.RowsPerEpoch
	if n > len(s.rows) {
		n = len(s.rows)
	}
	res := &EpochResult{}
	var slice []memctl.Row
	for i := 0; i < n; i++ {
		r := s.rows[(s.cursor+i)%len(s.rows)]
		if _, q := s.quarantined[r.Chip]; q {
			res.SkippedRows = append(res.SkippedRows, r)
			continue
		}
		slice = append(slice, r)
	}

	// Save live data. (Snapshot reads at zero wait: the contents as
	// the application last wrote them.) A failing save read is retried
	// while transient; a chip whose save read fails permanently is
	// quarantined and its rows drop out of the epoch — nothing has
	// been written to them yet, so they are skipped, not lost.
	words := s.host.Geometry().Words()
	s.scratch.grow(len(slice), words)
	var rows []memctl.Row
	for _, r := range slice {
		if _, q := s.quarantined[r.Chip]; q {
			res.SkippedRows = append(res.SkippedRows, r)
			continue
		}
		// A row whose save fails leaves its buffer to the next row.
		buf := s.scratch.saved[len(rows)]
		rerr := s.retrying(ctx, res, func() error { return s.host.ReadRowInto(ctx, r, buf) })
		if rerr != nil {
			if ctx.Err() != nil {
				s.report(res)
				return nil, fmt.Errorf("onlinetest: epoch cancelled while saving: %w", ctx.Err())
			}
			if _, ok := memctl.FaultedChips(rerr); !ok {
				s.report(res)
				return nil, fmt.Errorf("onlinetest: saving row %+v: %w", r, rerr)
			}
			s.quarantine(res, []int{r.Chip})
			res.SkippedRows = append(res.SkippedRows, r)
			continue
		}
		rows = append(rows, r)
	}
	saved := s.scratch.saved[:len(rows)]
	res.RowsTested = rows

	// From the first test write on, rows/saved hold overwritten live
	// data, so the restore must run on every exit path — success, pass
	// error, panic, or cancellation (hence the uncancelable context).
	// The restore set is all saved rows, including chips quarantined
	// mid-epoch: quarantine stops testing a chip, not the attempt to
	// give its live data back.
	//
	// Failures seen by the passes that did complete count as seen
	// even when the epoch aborts: they are folded into the failure sets
	// on every exit path, as the success path does below.
	wrote, folded := false, false
	s.scratch.obs = s.scratch.obs[:0]
	defer func() {
		if !folded {
			s.fold(sortedDistinct(s.scratch.obs))
		}
		if wrote {
			s.restore(context.WithoutCancel(ctx), res, rows, saved)
		}
		res.Degraded = len(res.SkippedRows) > 0 || len(res.Quarantined) > 0 || len(res.UnrestoredRows) > 0
		if err == nil && res.Degraded {
			s.degraded++
		}
		s.report(res)
	}()

	testRows := rows
	for pi := range s.pats {
		if len(testRows) == 0 {
			break
		}
		data := s.fillRows(pi, testRows)
		wrote = true
		var fails []memctl.BitAddr
		perr := s.retrying(ctx, res, func() error {
			var e error
			fails, e = s.host.Pass(ctx, testRows, data, s.host.WaitMs())
			return e
		})
		if perr != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("onlinetest: epoch cancelled: %w", ctx.Err())
			}
			chips, ok := memctl.FaultedChips(perr)
			if !ok {
				return nil, fmt.Errorf("onlinetest: test pass: %w", perr)
			}
			// Permanent chip fault: quarantine and carry on with the
			// survivors. The dead chips' rows stay in the restore set —
			// the deferred restore will account for them.
			s.quarantine(res, chips)
			testRows, _ = withoutChips(testRows, nil, chips)
			continue
		}
		res.Tests++
		s.tests++
		if s.passObserved != nil {
			s.passObserved(fails)
		}
		s.scratch.obs = append(s.scratch.obs, fails...)
	}
	// Several patterns commonly re-expose the same cell, but one epoch
	// is one observation: dedupe before folding.
	observed := sortedDistinct(s.scratch.obs)
	if len(observed) > 0 {
		res.Observed = slices.Clone(observed)
	}
	res.NewFailures = s.fold(observed)
	folded = true

	s.cursor = (s.cursor + n) % len(s.rows)
	if s.cursor == 0 {
		s.rounds++
		res.SweepCompleted = true
		// The next sweep will likely see about as many cells: reserve
		// them so its appends never regrow the set.
		s.sweepSeen = make([]memctl.BitAddr, 0, len(s.sweepSeen))
	}
	s.epochs++
	return res, nil
}

// grow makes room for rows save buffers of words words each, keeping
// every buffer already allocated.
func (sc *epochScratch) grow(rows, words int) {
	for len(sc.saved) < rows {
		sc.saved = append(sc.saved, make([]uint64, words))
	}
	if cap(sc.data) < rows {
		sc.data = make([][]uint64, rows)
	}
}

// fillRows returns pattern pi's data for rows: its materialized row,
// aliased for every row. The slice is scratch, valid until the next
// call.
func (s *Scheduler) fillRows(pi int, rows []memctl.Row) [][]uint64 {
	data := s.scratch.data[:len(rows)]
	for i := range data {
		data[i] = s.patRows[pi]
	}
	return data
}

// fold merges an epoch's observations (sorted, distinct) into both
// failure sets and returns the cells never seen before, in canonical
// order: a fresh slice, or nil when there are none.
func (s *Scheduler) fold(observed []memctl.BitAddr) []memctl.BitAddr {
	var fresh []memctl.BitAddr
	s.everSeen, fresh = union(s.everSeen, observed)
	s.sweepSeen, _ = union(s.sweepSeen, observed)
	if len(fresh) == 0 {
		return nil
	}
	return slices.Clone(fresh)
}

// retrying runs op, retrying transient errors up to the configured
// budget with backoff. Retry accounting lands in both the epoch
// result and the scheduler totals. Non-transient errors, exhausted
// budgets, and cancellation return the last error unchanged.
func (s *Scheduler) retrying(ctx context.Context, res *EpochResult, op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !memctl.IsTransient(err) || attempt >= s.cfg.MaxRetries {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		res.Retries++
		s.retries++
		if s.cfg.RetryBackoff > 0 {
			time.Sleep(s.cfg.RetryBackoff)
		}
	}
}

// quarantine marks chips out of service, recording them (sorted,
// deduplicated) in the epoch result.
func (s *Scheduler) quarantine(res *EpochResult, chips []int) {
	for _, c := range chips {
		if _, q := s.quarantined[c]; q {
			continue
		}
		s.quarantined[c] = struct{}{}
		res.Quarantined = append(res.Quarantined, c)
	}
	sort.Ints(res.Quarantined)
}

// withoutChips filters out the rows (and, when non-nil, the parallel
// data slice entries) whose chip is in drop, returning fresh slices
// so callers can keep the originals.
func withoutChips(rows []memctl.Row, data [][]uint64, drop []int) ([]memctl.Row, [][]uint64) {
	dead := make(map[int]struct{}, len(drop))
	for _, c := range drop {
		dead[c] = struct{}{}
	}
	outR := make([]memctl.Row, 0, len(rows))
	var outD [][]uint64
	if data != nil {
		outD = make([][]uint64, 0, len(data))
	}
	for i, r := range rows {
		if _, q := dead[r.Chip]; q {
			continue
		}
		outR = append(outR, r)
		if data != nil {
			outD = append(outD, data[i])
		}
	}
	return outR, outD
}

// restore writes the saved live data back and verifies it, retrying
// transient faults and quarantining chips that fail permanently.
// Verified mismatches and unrestorable rows are recorded in res. rows
// may include chips quarantined mid-epoch: restore still tries them
// (the data was overwritten, and an intermittent chip may be back),
// and only gives them up as unrestored when the hardware refuses.
func (s *Scheduler) restore(ctx context.Context, res *EpochResult, rows []memctl.Row, saved [][]uint64) {
	for len(rows) > 0 {
		var mismatch []memctl.BitAddr
		err := s.retrying(ctx, res, func() error {
			var e error
			mismatch, e = s.host.Pass(ctx, rows, saved, 0)
			return e
		})
		if err == nil {
			res.RestoreMismatch = append(res.RestoreMismatch, mismatch...)
			return
		}
		chips, ok := memctl.FaultedChips(err)
		if !ok {
			// No chip attribution: nothing actionable, everything still
			// pending is unrestored.
			res.UnrestoredRows = append(res.UnrestoredRows, rows...)
			return
		}
		// The faulted chips' rows are lost; survivors get another
		// restore pass. Each iteration removes at least the faulted
		// chips' rows from the set, so this terminates.
		s.quarantine(res, chips)
		for _, r := range rows {
			for _, c := range chips {
				if r.Chip == c {
					res.UnrestoredRows = append(res.UnrestoredRows, r)
					break
				}
			}
		}
		rows, saved = withoutChips(rows, saved, chips)
	}
}

// report publishes the epoch's resilience accounting through the
// host's recorder, if one is attached.
func (s *Scheduler) report(res *EpochResult) {
	rec := s.host.Recorder()
	if rec == nil {
		return
	}
	if res.Retries > 0 {
		rec.Add(obs.CounterRetries, uint64(res.Retries))
	}
	if len(res.Quarantined) > 0 {
		rec.Add(obs.CounterQuarantinedChips, uint64(len(res.Quarantined)))
	}
	if res.Degraded || len(res.SkippedRows) > 0 || len(res.Quarantined) > 0 {
		rec.Add(obs.CounterDegradedEpochs, 1)
	}
	if len(res.RestoreMismatch) > 0 {
		rec.Add(obs.CounterUnrestoredBits, uint64(len(res.RestoreMismatch)))
	}
	if len(res.UnrestoredRows) > 0 {
		rec.Add(obs.CounterUnrestoredRows, uint64(len(res.UnrestoredRows)))
	}
}

// Coverage returns the fraction of the module tested in the current
// sweep.
func (s *Scheduler) Coverage() float64 {
	if s.rounds > 0 && s.cursor == 0 {
		return 1
	}
	return float64(s.cursor) / float64(len(s.rows))
}

// Rounds returns the number of completed full-module sweeps.
func (s *Scheduler) Rounds() int { return s.rounds }

// Epochs returns the number of successfully completed epochs,
// including those before a checkpoint/resume.
func (s *Scheduler) Epochs() int { return s.epochs }

// Failures returns every failure observed in any epoch.
func (s *Scheduler) Failures() map[memctl.BitAddr]struct{} {
	out := make(map[memctl.BitAddr]struct{}, len(s.everSeen))
	for _, a := range s.everSeen {
		out[a] = struct{}{}
	}
	return out
}

// Tests returns the total successful pass count across epochs.
func (s *Scheduler) Tests() int { return s.tests }

// Quarantined returns the chips currently out of service, ascending.
func (s *Scheduler) Quarantined() []int {
	out := make([]int, 0, len(s.quarantined))
	for c := range s.quarantined {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Retries returns the total retry attempts consumed across epochs.
func (s *Scheduler) Retries() int { return s.retries }

// DegradedEpochs returns how many epochs ran with partial coverage.
func (s *Scheduler) DegradedEpochs() int { return s.degraded }
