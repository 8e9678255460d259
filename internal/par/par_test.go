package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var counts [n]int32
		if err := Map(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	ran := false
	if err := Map(context.Background(), 0, 4, func(int) error { ran = true; return nil }, nil); err != nil || ran {
		t.Fatalf("n=0: err=%v ran=%v", err, ran)
	}
	if err := Map(context.Background(), -3, 4, func(int) error { ran = true; return nil }, nil); err != nil || ran {
		t.Fatalf("n<0: err=%v ran=%v", err, ran)
	}
}

func TestMapReturnsFirstError(t *testing.T) {
	want := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := Map(context.Background(), 10, workers, func(i int) error {
			if i == 3 {
				return want
			}
			return nil
		}, nil)
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
		}
	}
}

// TestMapRecoversPanics is the regression test for the deadlock this
// package fixes: a panicking task used to take its worker down with
// the dispatch channel undrained, wedging the dispatcher forever.
// Map must instead surface the panic as an error and return.
func TestMapRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		done := make(chan error, 1)
		go func() {
			done <- Map(context.Background(), 50, workers, func(i int) error {
				if i == 7 {
					panic(fmt.Sprintf("task %d exploded", i))
				}
				return nil
			}, nil)
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: panic swallowed, got nil error", workers)
			}
			if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "exploded") {
				t.Fatalf("workers=%d: err = %v, want panic error", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Map deadlocked after a task panic", workers)
		}
	}
}

// TestMapCancelsAfterFirstError checks early cancel: once a task
// fails, the dispatcher must stop handing out fresh indices rather
// than running the whole batch.
func TestMapCancelsAfterFirstError(t *testing.T) {
	const n = 10000
	var started int32
	var mu sync.Mutex
	failed := false
	err := Map(context.Background(), n, 2, func(i int) error {
		atomic.AddInt32(&started, 1)
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			return errors.New("first failure")
		}
		return nil
	}, nil)
	if err == nil {
		t.Fatal("error lost")
	}
	// The two workers may each have held one in-flight task when the
	// failure landed; anything close to n means cancel did not happen.
	if got := atomic.LoadInt32(&started); got > 16 {
		t.Fatalf("%d of %d tasks started after an immediate first-task failure", got, n)
	}
}

func TestMapSerialPathStopsOnError(t *testing.T) {
	var ran int
	err := Map(context.Background(), 100, 1, func(i int) error {
		ran++
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	}, nil)
	if err == nil || ran != 5 {
		t.Fatalf("ran=%d err=%v, want 5 tasks then error", ran, err)
	}
}

// TestMapCtxCancelStopsDispatch: cancelling mid-run must stop new
// tasks promptly, join every worker, and surface ctx.Err().
func TestMapCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		const n = 10_000
		err := Map(ctx, n, workers, func(i int) error {
			if started.Add(1) == 5 {
				cancel()
			}
			return nil
		}, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Dispatch stops at the next select; in-flight tasks (at most
		// one per worker) may still finish.
		if got := started.Load(); got > 5+int32(workers)+1 {
			t.Errorf("workers=%d: %d tasks started after cancellation at 5", workers, got)
		}
	}
}

// TestMapCtxPreCancelled: an already-done ctx runs nothing at all.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := Map(ctx, 100, workers, func(i int) error {
			ran = true
			return nil
		}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran {
			t.Errorf("workers=%d: task ran under a pre-cancelled ctx", workers)
		}
	}
}

// TestMapCtxNoGoroutineLeak: cancellation must not strand workers.
func TestMapCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = Map(ctx, 1000, 8, func(i int) error {
			if i == 3 {
				cancel()
			}
			return nil
		}, nil)
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("20 cancelled Map rounds leaked goroutines: %d -> %d", before, after)
	}
}

// TestMapCtxTaskErrorBeatsCtxError: a real task error reported before
// cancellation wins over the ctx error, so callers see the root cause.
func TestMapCtxTaskErrorBeatsCtxError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := Map(ctx, 100, 2, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task's own error", err)
	}
}
