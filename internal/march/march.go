// Package march implements classical memory March tests and
// neighborhood pattern-sensitive fault (NPSF) testing over the
// system-level test host.
//
// Section 5.2.5 of the PARBOR paper observes that once the physical
// neighbor locations are known, "well-known test methods, such as
// neighborhood pattern-sensitive fault (NPSF) tests, can be applied",
// and that efficient NPSF algorithms are built from March elements.
// This package provides both building blocks:
//
//   - a March engine executing arbitrary element sequences (ascending
//     or descending row order, write/read operations, and the delay
//     elements DRAM-specific March variants insert to expose
//     retention faults), plus the standard MATS+, March C- and March
//     SS tests;
//   - an NPSF-style test that uses a detected neighbor-distance set
//     to stress every cell with deviated neighborhoods, implemented
//     with the same neighbor-aware patterns the PARBOR pipeline uses.
//
// March tests operate at row granularity with solid row data: a "w0"
// element writes zeros to each row in order, "r0" reads each row and
// reports any cell that does not hold zero. This matches how March
// tests run through a memory controller (cache-line writes of
// repeated data), and detects stuck-at, transition, and — with delay
// elements — retention faults. Coupling faults between *rows* would
// need row-pair sensitization, and coupling faults within a row need
// the NPSF test, since solid row data never places opposite values at
// intra-row neighbors.
package march

import (
	"context"
	"fmt"
	"strings"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
)

// Direction orders row traversal within an element. March theory also
// allows "either"; the engine treats it as ascending.
type Direction int

// Traversal orders.
const (
	Up Direction = iota + 1
	Down
	Either
)

// OpKind is a March operation.
type OpKind int

// March operations: write zeros/ones to the row, or read and verify.
const (
	W0 OpKind = iota + 1
	W1
	R0
	R1
)

// Element is one March element: a sequence of operations applied to
// each row in the given direction, with an optional retention delay
// (in milliseconds) before the element runs — the DRAM-specific
// extension used to expose retention and data-dependent faults.
type Element struct {
	Dir     Direction
	Ops     []OpKind
	DelayMs float64
}

// Test is a named March test.
type Test struct {
	Name     string
	Elements []Element
}

// String renders the test in standard March notation.
func (t Test) String() string {
	var parts []string
	for _, e := range t.Elements {
		var ops []string
		for _, op := range e.Ops {
			switch op {
			case W0:
				ops = append(ops, "w0")
			case W1:
				ops = append(ops, "w1")
			case R0:
				ops = append(ops, "r0")
			case R1:
				ops = append(ops, "r1")
			}
		}
		dir := "⇕"
		switch e.Dir {
		case Up:
			dir = "⇑"
		case Down:
			dir = "⇓"
		}
		s := dir + "(" + strings.Join(ops, ",") + ")"
		if e.DelayMs > 0 {
			s = fmt.Sprintf("Del%.0fms;%s", e.DelayMs, s)
		}
		parts = append(parts, s)
	}
	return t.Name + ": " + strings.Join(parts, " ")
}

// MATSPlus is MATS+: {⇕(w0); ⇑(r0,w1); ⇓(r1,w0)} — detects stuck-at
// and address-decoder faults.
func MATSPlus() Test {
	return Test{
		Name: "MATS+",
		Elements: []Element{
			{Dir: Either, Ops: []OpKind{W0}},
			{Dir: Up, Ops: []OpKind{R0, W1}},
			{Dir: Down, Ops: []OpKind{R1, W0}},
		},
	}
}

// MarchCMinus is March C-:
// {⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)} — detects
// stuck-at, transition, and inter-word coupling faults.
func MarchCMinus() Test {
	return Test{
		Name: "March C-",
		Elements: []Element{
			{Dir: Either, Ops: []OpKind{W0}},
			{Dir: Up, Ops: []OpKind{R0, W1}},
			{Dir: Up, Ops: []OpKind{R1, W0}},
			{Dir: Down, Ops: []OpKind{R0, W1}},
			{Dir: Down, Ops: []OpKind{R1, W0}},
			{Dir: Either, Ops: []OpKind{R0}},
		},
	}
}

// MarchSS is March SS, a longer test covering simple static faults:
// {⇕(w0); ⇑(r0,r0,w0,r0,w1); ⇑(r1,r1,w1,r1,w0);
//
//	⇓(r0,r0,w0,r0,w1); ⇓(r1,r1,w1,r1,w0); ⇕(r0)}.
func MarchSS() Test {
	return Test{
		Name: "March SS",
		Elements: []Element{
			{Dir: Either, Ops: []OpKind{W0}},
			{Dir: Up, Ops: []OpKind{R0, R0, W0, R0, W1}},
			{Dir: Up, Ops: []OpKind{R1, R1, W1, R1, W0}},
			{Dir: Down, Ops: []OpKind{R0, R0, W0, R0, W1}},
			{Dir: Down, Ops: []OpKind{R1, R1, W1, R1, W0}},
			{Dir: Either, Ops: []OpKind{R0}},
		},
	}
}

// WithRetentionDelays returns a copy of the test with delayMs
// inserted before every element that begins with a read — the
// standard DRAM adaptation that turns a surface March test into a
// retention test.
func WithRetentionDelays(t Test, delayMs float64) Test {
	out := Test{Name: fmt.Sprintf("%s+%.0fms", t.Name, delayMs)}
	for _, e := range t.Elements {
		if len(e.Ops) > 0 && (e.Ops[0] == R0 || e.Ops[0] == R1) {
			e.DelayMs = delayMs
		}
		out.Elements = append(out.Elements, e)
	}
	return out
}

// Result aggregates a March run.
type Result struct {
	Test Test
	// Failures are all mismatching cells observed across all read
	// operations.
	Failures map[memctl.BitAddr]struct{}
	// Reads and Writes count row operations performed.
	Reads  int
	Writes int
}

// Engine executes March tests through a host.
type Engine struct {
	host *memctl.Host
}

// NewEngine builds an engine.
func NewEngine(host *memctl.Host) (*Engine, error) {
	if host == nil {
		return nil, fmt.Errorf("march: nil host")
	}
	return &Engine{host: host}, nil
}

// rows lists the module's rows in ascending order.
func (e *Engine) rows() []memctl.Row {
	g := e.host.Geometry()
	out := make([]memctl.Row, 0, e.host.Chips()*g.RowCount())
	for chip := 0; chip < e.host.Chips(); chip++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				out = append(out, memctl.Row{Chip: chip, Bank: bank, Row: row})
			}
		}
	}
	return out
}

// Run executes the test and returns every observed failure.
//
// Operations are realized through host passes: writes of an element
// are batched into one pass per op (all rows written back-to-back),
// and read ops verify after the element's delay. This preserves March
// semantics at row granularity while keeping pass accounting
// comparable with the rest of the repository. A done ctx stops the
// test inside the current pass and Run returns ctx's error.
func (e *Engine) Run(ctx context.Context, t Test) (*Result, error) {
	if len(t.Elements) == 0 {
		return nil, fmt.Errorf("march: test %q has no elements", t.Name)
	}
	res := &Result{Test: t, Failures: make(map[memctl.BitAddr]struct{})}
	rows := e.rows()
	words := e.host.Geometry().Words()

	zeros := make([]uint64, words)
	ones := make([]uint64, words)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	rowData := func(op OpKind) []uint64 {
		if op == W1 || op == R1 {
			return ones
		}
		return zeros
	}

	for _, elem := range t.Elements {
		order := rows
		if elem.Dir == Down {
			order = make([]memctl.Row, len(rows))
			for i, r := range rows {
				order[len(rows)-1-i] = r
			}
		}
		delayed := false
		for _, op := range elem.Ops {
			switch op {
			case W0, W1:
				data := rowData(op)
				bufs := make([][]uint64, len(order))
				for i := range bufs {
					bufs[i] = data
				}
				// A pure write: zero retention wait.
				if _, err := e.host.Pass(ctx, order, bufs, 0); err != nil {
					return nil, fmt.Errorf("march: %s write: %w", t.Name, err)
				}
				res.Writes += len(order)
			case R0, R1:
				wait := 0.0
				if !delayed && elem.DelayMs > 0 {
					wait = elem.DelayMs
					delayed = true
				}
				expected := rowData(op)
				bufs := make([][]uint64, len(order))
				for i := range bufs {
					bufs[i] = expected
				}
				// A read must not rewrite (recharge) the rows, so it is a
				// Verify, not a Pass.
				fails, err := e.host.Verify(ctx, order, bufs, wait)
				if err != nil {
					return nil, fmt.Errorf("march: %s read: %w", t.Name, err)
				}
				for _, a := range fails {
					res.Failures[a] = struct{}{}
				}
				res.Reads += len(order)
			default:
				return nil, fmt.Errorf("march: unknown op %d", int(op))
			}
		}
	}
	return res, nil
}

// NPSFResult aggregates an NPSF run.
type NPSFResult struct {
	// Failures observed across all neighborhood patterns.
	Failures map[memctl.BitAddr]struct{}
	// Tests is the number of passes.
	Tests int
}

// NPSF runs a neighborhood pattern-sensitive fault test using the
// detected neighbor distances: every cell is stressed as a base cell
// with its deviated neighborhood (all candidate neighbors opposite),
// in both polarities — the Type-1 active NPSF condition restricted to
// the physically meaningful neighborhoods PARBOR identified.
func (e *Engine) NPSF(ctx context.Context, distances []int, waitMs float64) (*NPSFResult, error) {
	chunk := chunkFor(distances)
	pats, err := patterns.NeighborAware(distances, chunk)
	if err != nil {
		return nil, fmt.Errorf("march: NPSF patterns: %w", err)
	}
	res := &NPSFResult{Failures: make(map[memctl.BitAddr]struct{})}
	for _, p := range pats {
		for _, pp := range []patterns.Pattern{p, p.Inverse()} {
			fill := pp.Fill
			fails, err := e.host.FullPass(ctx, func(r memctl.Row, buf []uint64) []uint64 {
				fill(r.Chip, r.Bank, r.Row, buf)
				return buf
			}, waitMs)
			if err != nil {
				return nil, fmt.Errorf("march: NPSF %s pass: %w", pp.Name, err)
			}
			res.Tests++
			for _, a := range fails {
				res.Failures[a] = struct{}{}
			}
		}
	}
	return res, nil
}

func chunkFor(distances []int) int {
	max := 0
	for _, d := range distances {
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	chunk := 16
	for chunk < 2*max {
		chunk *= 2
	}
	return chunk
}
