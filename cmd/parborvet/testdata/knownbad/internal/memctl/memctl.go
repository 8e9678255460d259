// Package memctl trips ctxthread exactly once: an exported loop that
// drives probe passes from a stored context instead of accepting one.
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

// Probe runs one single-cell-per-row pass.
func (h *Host) Probe(ctx context.Context) error { return h.Pass(ctx) }

// Sweeper holds a context captured at construction.
type Sweeper struct {
	ctx context.Context
	h   *Host
}

// RunAll loops over probe passes fed from the stored context, so no
// caller can cancel it.
func (s *Sweeper) RunAll(n int) error {
	for i := 0; i < n; i++ {
		if err := s.h.Probe(s.ctx); err != nil {
			return err
		}
	}
	return nil
}
