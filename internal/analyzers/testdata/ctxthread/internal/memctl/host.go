// Package memctl is the ctxthread fixture: its path tail places it in
// the context-threaded scope, so root contexts, unused contexts, and
// ctx-less pass loops are all in play.
package memctl

import "context"

// Host drives rows.
type Host struct{ rows int }

// Pass runs one pass, checking for cancellation per row.
func (h *Host) Pass(ctx context.Context) error {
	for r := 0; r < h.rows; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Probe runs one single-cell-per-row pass, checking for cancellation
// per row.
func (h *Host) Probe(ctx context.Context) error { return h.Pass(ctx) }

// Table1Ctx is a context-first entry point.
func Table1Ctx(ctx context.Context, h *Host) error {
	return h.Pass(ctx)
}

// Table1 is a ctx-less twin: even handed straight to the
// context-first sibling, a root context hides a cancellation gap.
func Table1(h *Host) error {
	return Table1Ctx(context.Background(), h) // want ctxthread `context.Background in library code; accept a context.Context instead`
}

// Warm builds its own context instead of accepting one.
func Warm(h *Host) error {
	ctx := context.Background() // want ctxthread `context.Background in library code`
	return h.Pass(ctx)
}

// Drain accepts a context and ignores it.
func Drain(ctx context.Context, h *Host) error { // want ctxthread `accepts a context.Context but never uses it`
	_ = h
	return nil
}

// Sweeper holds a context captured at construction.
type Sweeper struct {
	ctx context.Context
	h   *Host
}

// RunAll loops over passes fed from the stored context: no caller can
// cancel this loop, because it never accepts a context at all.
func (s *Sweeper) RunAll(n int) error { // want ctxthread `without accepting a context.Context`
	for i := 0; i < n; i++ {
		if err := s.h.Pass(s.ctx); err != nil {
			return err
		}
	}
	return nil
}

// ProbeAll loops over probe passes fed from the stored context: a
// probe pass drives the hardware like any other pass.
func (s *Sweeper) ProbeAll(n int) error { // want ctxthread `exported ProbeAll loops over Probe without accepting a context.Context`
	for i := 0; i < n; i++ {
		if err := s.h.Probe(s.ctx); err != nil {
			return err
		}
	}
	return nil
}

// Restage shadows the context it already holds.
func Restage(ctx context.Context, h *Host) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.Pass(context.Background()) // want ctxthread `ignores the function's ctx parameter`
}

// Sweep is the compliant shape: context threaded into every pass.
func Sweep(ctx context.Context, h *Host, n int) error {
	for i := 0; i < n; i++ {
		if err := h.Pass(ctx); err != nil {
			return err
		}
	}
	return nil
}
