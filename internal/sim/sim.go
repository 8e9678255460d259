// Package sim is a command-level, event-driven DDR3 memory-system
// simulator ("ramulator-lite") for evaluating refresh policies: the
// substrate for the paper's DC-REF experiment (Section 8, Figure 16).
//
// The model captures what a refresh study needs and elides the rest:
//
//   - multi-channel / multi-rank / multi-bank topology with row
//     buffers, DDR3-1600 bank timing (row hit vs miss), and shared
//     channel data buses;
//   - FR-FCFS scheduling: per-bank queues serving row-buffer hits
//     first, oldest first among equals (Table 2's controller);
//   - per-rank refresh engines driven by a refresh.Policy, charging
//     tRFC-equivalent rank-blocking time per row refreshed, draining
//     the rank's banks before starting, and closing row buffers;
//   - simple cores replaying synthetic SPEC-like request streams,
//     with a bounded window of outstanding reads (an MLP proxy for
//     the paper's 3-wide out-of-order cores) and posted writes;
//   - a coarse DRAM energy account (activate/access/refresh +
//     background).
package sim

import (
	"container/heap"
	"fmt"

	"parbor/internal/refresh"
	"parbor/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	// Workload assigns one application per core.
	Workload []trace.App
	// Policy selects the refresh policy.
	Policy refresh.Kind
	// Density selects chip density (rows and tRFC).
	Density Density
	// SimNs is the simulated wall-clock window in nanoseconds.
	// Defaults to 5e6 (5 ms), enough for hundreds of refresh windows.
	SimNs float64
	// Channels, RanksPerChannel, BanksPerRank define the topology;
	// zero values default to the paper's 2 channels x 2 ranks x 8
	// banks.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	// WeakRowFrac is the fraction of weak rows (paper: 16.4%).
	// Zero defaults to 0.164.
	WeakRowFrac float64
	// MLP is the maximum outstanding reads per core before the core
	// stalls, a proxy for the instruction window of the paper's
	// 3-wide, 128-entry cores. Zero defaults to 4.
	MLP int
	// PerBankRefresh switches from all-bank refresh (DDR3 REF, the
	// paper's model: the whole rank blocks) to per-bank refresh
	// (LPDDR-style REFpb): each refresh bundle blocks a single bank,
	// rotating round-robin, so the rank's other banks keep serving.
	PerBankRefresh bool
	// Timing overrides the DDR3-1600 defaults when non-zero.
	Timing Timing
	// Seed fixes all stochastic draws.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.SimNs == 0 {
		c.SimNs = 5e6
	}
	if c.Channels == 0 {
		c.Channels = 2
	}
	if c.RanksPerChannel == 0 {
		c.RanksPerChannel = 2
	}
	if c.BanksPerRank == 0 {
		c.BanksPerRank = 8
	}
	if c.WeakRowFrac == 0 {
		c.WeakRowFrac = 0.164
	}
	if c.MLP == 0 {
		c.MLP = 4
	}
	if c.Timing == (Timing{}) {
		c.Timing = defaultTiming()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Workload) == 0 {
		return fmt.Errorf("sim: empty workload")
	}
	if c.SimNs < 0 || c.Channels < 0 || c.RanksPerChannel < 0 || c.BanksPerRank < 0 {
		return fmt.Errorf("sim: negative dimension in config")
	}
	if c.WeakRowFrac < 0 || c.WeakRowFrac > 1 {
		return fmt.Errorf("sim: WeakRowFrac %v out of [0,1]", c.WeakRowFrac)
	}
	if c.MLP < 0 {
		return fmt.Errorf("sim: negative MLP %d", c.MLP)
	}
	if _, err := c.Density.tRFCns(); err != nil {
		return err
	}
	switch c.Policy {
	case refresh.Uniform, refresh.RAIDR, refresh.DCREF:
	default:
		return fmt.Errorf("sim: unknown policy %d", int(c.Policy))
	}
	return nil
}

// Result aggregates one run.
type Result struct {
	// IPC is each core's instructions per CPU cycle.
	IPC []float64
	// Instructions and Requests are totals across cores.
	Instructions int64
	Requests     int64
	// RowHits / RowMisses split the request stream.
	RowHits   int64
	RowMisses int64
	// Refreshes is the number of row-refresh operations issued.
	Refreshes int64
	// RefreshBusyNs is the cumulative rank-blocked time due to
	// refresh.
	RefreshBusyNs float64
	// AvgReadLatencyNs is the mean issue-to-completion latency of
	// reads.
	AvgReadLatencyNs float64
	// FastRowFrac is the fraction of rows on the fast (64 ms)
	// interval at the end of the run.
	FastRowFrac float64
	// Energy is the coarse DRAM energy account.
	Energy Energy
}

// slotsPerInterval is the number of tREFI slots per 64 ms refresh
// interval (64 ms / 7.8125 us = 8192, the DDR3 architecture constant).
const slotsPerInterval = 8192

// slowRatio is the slow-bin multiple: 256 ms / 64 ms.
const slowRatio = 4

type eventKind uint8

const (
	evCore eventKind = iota + 1
	evRefresh
	evComplete
	evBankKick
)

// event is a heap entry.
type event struct {
	at   float64
	kind eventKind
	id   int // core, rank or bank index, by kind
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// pendingReq is one queued memory request.
type pendingReq struct {
	row     int64
	write   bool
	core    int
	readyAt float64
	seq     int64
}

type bank struct {
	queue     []pendingReq
	busyUntil float64
	openRow   int64
	hasOpen   bool
	rank      int
	channel   int
}

type rank struct {
	policy       *refresh.Policy
	refreshUntil float64
	refreshAcc   float64
	writeSeq     uint64
	nextRefBank  int // round-robin cursor for per-bank refresh
}

type coreState struct {
	stream      *trace.Stream
	insts       int64
	outstanding int
	stalled     bool
}

// simState is the run-scoped simulation state.
type simState struct {
	cfg   Config
	tm    Timing
	h     *eventHeap
	banks []bank
	ranks []rank
	cores []coreState
	chans []float64 // per-channel bus busy-until

	rowsPerBank     int
	perRowRefreshNs float64
	seq             int64
	footprintBase   []int64

	res          *Result
	readLatSumNs float64
	readCount    int64
	activates    int64
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rowsPerBank, err := cfg.Density.rowsPerBank()
	if err != nil {
		return nil, err
	}
	trfc, err := cfg.Density.tRFCns()
	if err != nil {
		return nil, err
	}
	nRanks := cfg.Channels * cfg.RanksPerChannel
	nBanks := nRanks * cfg.BanksPerRank
	rowsPerRank := int64(cfg.BanksPerRank) * int64(rowsPerBank)

	s := &simState{
		cfg:         cfg,
		tm:          cfg.Timing,
		h:           &eventHeap{},
		banks:       make([]bank, nBanks),
		ranks:       make([]rank, nRanks),
		cores:       make([]coreState, len(cfg.Workload)),
		chans:       make([]float64, cfg.Channels),
		rowsPerBank: rowsPerBank,
		// One REF covers rowsPerRank/slotsPerInterval rows at a cost
		// of tRFC, so charging per row keeps the baseline identical
		// to standard auto-refresh.
		perRowRefreshNs: trfc * slotsPerInterval / float64(rowsPerRank),
		res:             &Result{IPC: make([]float64, len(cfg.Workload))},
	}
	for b := range s.banks {
		rankID := b / cfg.BanksPerRank
		s.banks[b].rank = rankID
		s.banks[b].channel = rankID / cfg.RanksPerChannel
	}
	for r := range s.ranks {
		pol, err := refresh.New(refresh.Config{
			Kind:             cfg.Policy,
			TotalRows:        rowsPerRank,
			WeakRowFrac:      cfg.WeakRowFrac,
			InitialMatchProb: trace.AverageContentMatchProb(cfg.Workload),
			Seed:             cfg.Seed + uint64(r)*0x9e37,
		})
		if err != nil {
			return nil, err
		}
		s.ranks[r] = rank{policy: pol}
	}
	for c := range s.cores {
		stream, err := trace.NewStream(cfg.Workload[c], cfg.Seed+uint64(c)*31)
		if err != nil {
			return nil, err
		}
		s.cores[c] = coreState{stream: stream}
	}
	// Stagger per-core address spaces so cores do not collide on the
	// same rows.
	s.footprintBase = make([]int64, len(s.cores))
	base := int64(0)
	for c, app := range cfg.Workload {
		s.footprintBase[c] = base
		base += int64(app.FootprintRows)
	}

	heap.Init(s.h)
	for c := range s.cores {
		heap.Push(s.h, event{at: 0, kind: evCore, id: c})
	}
	for r := range s.ranks {
		heap.Push(s.h, event{at: s.tm.TREFI, kind: evRefresh, id: r})
	}
	s.loop()

	cpuCycles := cfg.SimNs * s.tm.CPUGHz
	for c := range s.cores {
		s.res.IPC[c] = float64(s.cores[c].insts) / cpuCycles
		s.res.Instructions += s.cores[c].insts
	}
	var fast, total int64
	for r := range s.ranks {
		fast += s.ranks[r].policy.FastRows()
		total += s.ranks[r].policy.TotalRows()
	}
	s.res.FastRowFrac = float64(fast) / float64(total)
	if s.readCount > 0 {
		s.res.AvgReadLatencyNs = s.readLatSumNs / float64(s.readCount)
	}
	s.res.Energy = accumulateEnergy(s.activates, s.res.Requests, s.res.Refreshes, cfg.SimNs, nRanks)
	return s.res, nil
}

func (s *simState) loop() {
	for s.h.Len() > 0 {
		ev := heap.Pop(s.h).(event)
		if ev.at >= s.cfg.SimNs {
			continue // drain without processing past the window
		}
		switch ev.kind {
		case evRefresh:
			s.onRefresh(ev)
		case evCore:
			s.onCore(ev)
		case evComplete:
			s.onComplete(ev)
		case evBankKick:
			s.serviceBank(ev.id, ev.at)
		}
	}
}

func (s *simState) onRefresh(ev event) {
	r := &s.ranks[ev.id]
	r.refreshAcc += r.policy.RowsDuePerTick(slotsPerInterval, slowRatio)
	n := int64(r.refreshAcc)
	r.refreshAcc -= float64(n)
	if n > 0 {
		cost := float64(n) * s.perRowRefreshNs
		if s.cfg.PerBankRefresh {
			// REFpb: block one bank only, rotating round-robin; the
			// rest of the rank keeps serving requests.
			bankID := ev.id*s.cfg.BanksPerRank + r.nextRefBank
			r.nextRefBank = (r.nextRefBank + 1) % s.cfg.BanksPerRank
			bk := &s.banks[bankID]
			start := ev.at
			if bk.busyUntil > start {
				start = bk.busyUntil
			}
			bk.busyUntil = start + cost
			bk.hasOpen = false
			s.res.Refreshes += n
			s.res.RefreshBusyNs += cost
			heap.Push(s.h, event{at: bk.busyUntil, kind: evBankKick, id: bankID})
		} else {
			// A rank refresh needs every bank precharged: it cannot
			// start until in-flight requests drain.
			start := ev.at
			if r.refreshUntil > start {
				start = r.refreshUntil
			}
			for b := 0; b < s.cfg.BanksPerRank; b++ {
				bk := &s.banks[ev.id*s.cfg.BanksPerRank+b]
				if bk.busyUntil > start {
					start = bk.busyUntil
				}
			}
			r.refreshUntil = start + cost
			s.res.Refreshes += n
			s.res.RefreshBusyNs += cost
			// Refresh precharges the rank: every open row closes, and
			// the banks need a kick when the rank frees.
			for b := 0; b < s.cfg.BanksPerRank; b++ {
				bankID := ev.id*s.cfg.BanksPerRank + b
				s.banks[bankID].hasOpen = false
				heap.Push(s.h, event{at: r.refreshUntil, kind: evBankKick, id: bankID})
			}
		}
	}
	heap.Push(s.h, event{at: ev.at + s.tm.TREFI, kind: evRefresh, id: ev.id})
}

func (s *simState) onCore(ev event) {
	c := &s.cores[ev.id]
	if c.outstanding >= s.cfg.MLP {
		// Window full: stall until the next read completes.
		c.stalled = true
		return
	}
	req := c.stream.Next()
	c.insts += int64(req.InstGap)
	s.res.Requests++

	bankID, row := s.mapAddress(ev.id, req.Row)
	issueAt := ev.at + s.tm.instNs(req.InstGap)

	if req.Write {
		rk := &s.ranks[s.banks[bankID].rank]
		rk.writeSeq++
		rankRow := int64(bankID%s.cfg.BanksPerRank)*int64(s.rowsPerBank) + row
		rk.policy.OnWrite(rankRow, s.cfg.Workload[ev.id].ContentMatchProb, rk.writeSeq)
	} else {
		c.outstanding++
	}
	s.seq++
	s.banks[bankID].queue = append(s.banks[bankID].queue, pendingReq{
		row:     row,
		write:   req.Write,
		core:    ev.id,
		readyAt: issueAt,
		seq:     s.seq,
	})
	heap.Push(s.h, event{at: issueAt, kind: evBankKick, id: bankID})
	// The core keeps issuing after the compute gap.
	heap.Push(s.h, event{at: issueAt, kind: evCore, id: ev.id})
}

func (s *simState) onComplete(ev event) {
	c := &s.cores[ev.id]
	c.outstanding--
	if c.stalled {
		c.stalled = false
		heap.Push(s.h, event{at: ev.at, kind: evCore, id: ev.id})
	}
}

// mapAddress places an app row into the physical hierarchy,
// interleaving consecutive rows across channels, ranks, then banks.
func (s *simState) mapAddress(core int, appRow int64) (bankID int, row int64) {
	totalRows := int64(len(s.banks)) * int64(s.rowsPerBank)
	global := (s.footprintBase[core] + appRow) % totalRows
	ch := global % int64(s.cfg.Channels)
	rk := (global / int64(s.cfg.Channels)) % int64(s.cfg.RanksPerChannel)
	bk := (global / int64(s.cfg.Channels*s.cfg.RanksPerChannel)) % int64(s.cfg.BanksPerRank)
	row = global / int64(s.cfg.Channels*s.cfg.RanksPerChannel*s.cfg.BanksPerRank) % int64(s.rowsPerBank)
	rankID := int(ch)*s.cfg.RanksPerChannel + int(rk)
	return rankID*s.cfg.BanksPerRank + int(bk), row
}

// serviceBank starts the best ready request (FR-FCFS: row hits first,
// oldest among equals) if the bank is free.
func (s *simState) serviceBank(bankID int, now float64) {
	bk := &s.banks[bankID]
	if bk.busyUntil > now || len(bk.queue) == 0 {
		return
	}
	rk := &s.ranks[bk.rank]
	if rk.refreshUntil > now {
		// The rank is refreshing; a kick is scheduled for when it
		// frees.
		return
	}

	best := -1
	for i := range bk.queue {
		req := &bk.queue[i]
		if req.readyAt > now {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		bi := &bk.queue[best]
		hitBest := bk.hasOpen && bi.row == bk.openRow
		hitCand := bk.hasOpen && req.row == bk.openRow
		if hitCand != hitBest {
			if hitCand {
				best = i
			}
			continue
		}
		if req.seq < bi.seq {
			best = i
		}
	}
	if best == -1 {
		// Nothing ready yet: kick again at the earliest ready time.
		earliest := bk.queue[0].readyAt
		for _, req := range bk.queue[1:] {
			if req.readyAt < earliest {
				earliest = req.readyAt
			}
		}
		heap.Push(s.h, event{at: earliest, kind: evBankKick, id: bankID})
		return
	}
	req := bk.queue[best]
	bk.queue = append(bk.queue[:best], bk.queue[best+1:]...)

	var service float64
	if bk.hasOpen && bk.openRow == req.row {
		service = s.tm.hitLatency()
		s.res.RowHits++
	} else {
		service = s.tm.missLatency()
		s.res.RowMisses++
		s.activates++
	}
	bk.openRow = req.row
	bk.hasOpen = true

	done := now + service
	// The 64 B burst also needs the channel's shared data bus.
	if min := s.chans[bk.channel] + s.tm.TBL; done < min {
		done = min
	}
	s.chans[bk.channel] = done
	bk.busyUntil = done

	if !req.write {
		s.readLatSumNs += done - req.readyAt
		s.readCount++
		heap.Push(s.h, event{at: done, kind: evComplete, id: req.core})
	}
	heap.Push(s.h, event{at: done, kind: evBankKick, id: bankID})
}
