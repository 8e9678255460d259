// Package par provides the bounded worker pool shared by every
// fan-out in the repository: experiment batches (package exp) and the
// per-chip sharding of the test host (package memctl).
//
// Map is hardened for long-running batch work: a panic inside a task
// is recovered into an error instead of killing the process (or, as
// in an earlier version, killing a worker and deadlocking the
// dispatcher on an undrained channel), and once any task fails the
// dispatcher stops handing out the remaining indices so a batch with
// an early error does not burn the rest of its budget.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Map runs fn(0..n-1) across up to `workers` goroutines and returns
// the first error. workers <= 0 selects GOMAXPROCS. Tasks must be
// independent; results must not depend on scheduling order.
//
// A panicking task is converted to an error carrying the panic value.
// After the first failure no new indices are dispatched (tasks
// already running complete), and the first error — in dispatch order
// of occurrence, not index order — is returned.
//
// Once ctx is done, no new indices are dispatched either and ctx.Err()
// is returned unless a task error landed first. Tasks that want
// prompt cancellation must additionally observe ctx themselves. Every
// worker goroutine Map starts is joined before it returns, on every
// path — cancelled, errored, or clean — so callers never leak pool
// goroutines.
//
// When onTask is non-nil it is invoked after each task with the task
// index and its wall-clock duration, including failed and panicking
// tasks. onTask runs on the worker goroutine that executed the task
// and so must be safe for concurrent use; the pool's scheduling,
// error semantics and results are unchanged by it. The test host uses
// this to histogram per-chip shard times and expose load imbalance.
func Map(ctx context.Context, n, workers int, fn func(i int) error, onTask func(i int, d time.Duration)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, i, onTask); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	fe := newFirstError()
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := call(fn, i, onTask); err != nil {
					fe.set(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-fe.done:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := fe.get(); err != nil {
		return err
	}
	return ctx.Err()
}

// firstError latches the first task failure across the worker pool.
// A named struct rather than bare locals so the lock discipline is a
// machine-checked //parbor:guardedby annotation, not a convention.
type firstError struct {
	mu   sync.Mutex
	err  error         //parbor:guardedby mu
	done chan struct{} // closed when err latches, cancelling dispatch
}

func newFirstError() *firstError {
	return &firstError{done: make(chan struct{})}
}

// set latches err if it is the first failure; later errors are
// dropped (Map reports the first error in order of occurrence).
func (fe *firstError) set(err error) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.err == nil {
		fe.err = err
		close(fe.done)
	}
}

// get returns the latched error, if any.
func (fe *firstError) get() error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.err
}

// call invokes fn(i), converting a panic into an error so that one
// bad task cannot take down the pool (a worker dying mid-pool leaves
// the dispatcher blocked forever on the task channel). The duration
// callback fires from the deferred handler so panicking tasks are
// timed too.
//
//parbor:wallclock task timing feeds only the onTask observability callback, never simulation state
func call(fn func(i int) error, i int, onTask func(i int, d time.Duration)) (err error) {
	var start time.Time
	if onTask != nil {
		start = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: task %d panicked: %v", i, r)
		}
		if onTask != nil {
			onTask(i, time.Since(start))
		}
	}()
	return fn(i)
}
