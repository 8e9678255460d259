package fleet

import (
	"sync"

	"parbor/internal/fleetlog"
	"parbor/internal/obs"
)

// defaultLogBufferCap bounds the degraded-mode event buffer: at ~100
// bytes per typical event this is under a megabyte of held state, and
// a fleet that logs one event per module per epoch rides out a
// multi-epoch outage before anything is dropped.
const defaultLogBufferCap = 4096

// logSink wraps the fleetlog writer with the daemon's graceful-
// degradation policy. The fleet's job is detection; the event log is
// its record, not its reason to exist — so a persistent log failure
// (disk full, volume detached, fsync refusing) must not take the
// daemon down with it. Instead the sink flips into degraded mode:
// appends buffer in memory up to a cap (then are dropped and
// counted), /healthz reports the degradation and its reason, and
// every subsequent append re-probes the log by reopening the
// directory — which also re-verifies the tail, exactly what a
// post-fsync-failure writer needs before it may be trusted again.
// On recovery the buffered backlog flushes before new events.
//
// append never returns an error: from the modules' point of view the
// log is infallible, so a storage outage cannot fail detection work.
// The price is bounded and visible — resilience.log_degraded counts
// episodes, resilience.log_events_dropped counts lost events, and
// the obs Reconcile invariant ties the two together.
type logSink struct {
	dir  string
	opts fleetlog.WriterOptions
	col  *obs.Collector

	mu       sync.Mutex
	w        *fleetlog.Writer //parbor:guardedby mu — nil while degraded or after close
	degraded bool             //parbor:guardedby mu
	reason   string           //parbor:guardedby mu
	buf      []fleetlog.Event //parbor:guardedby mu
	bufCap   int              //parbor:guardedby mu
	dropped  uint64           //parbor:guardedby mu
	closed   bool             //parbor:guardedby mu
}

// newLogSink opens the log directory. An error here is a
// configuration problem (unwritable path, corrupt segment) the
// operator must see at startup, not a runtime fault to degrade over.
func newLogSink(dir string, opts fleetlog.WriterOptions, bufCap int, col *obs.Collector) (*logSink, error) {
	w, err := fleetlog.OpenWriter(dir, opts)
	if err != nil {
		return nil, err
	}
	return &logSink{dir: dir, opts: opts, col: col, w: w, bufCap: bufCap}, nil
}

// append records one event, absorbing any log failure into the
// degradation state machine.
func (s *logSink) append(ev fleetlog.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.degraded {
		s.probeLocked()
	}
	if !s.degraded && s.w != nil {
		err := s.w.Append(ev)
		if err == nil {
			return
		}
		s.degradeLocked(err)
	}
	s.bufferLocked(ev)
}

// degradeLocked enters degraded mode: the (poisoned) writer is
// dropped and the episode is counted.
func (s *logSink) degradeLocked(err error) {
	s.degraded = true
	s.reason = err.Error()
	if s.w != nil {
		//parbor:droperr the writer is already poisoned by the append/sync error being handled; its close error adds nothing
		s.w.Close()
		s.w = nil
	}
	s.col.Add(obs.CounterLogDegraded, 1)
}

// bufferLocked holds an event for the recovery flush, or counts it
// dropped once the buffer is full.
func (s *logSink) bufferLocked(ev fleetlog.Event) {
	if len(s.buf) < s.bufCap {
		s.buf = append(s.buf, ev)
		return
	}
	s.dropped++
	s.col.Add(obs.CounterLogEventsDropped, 1)
}

// probeLocked attempts recovery: reopen the directory (re-verifying
// the tail a failed fsync left suspect) and flush the buffered
// backlog in order. Any failure leaves the sink degraded with the
// unflushed remainder intact.
func (s *logSink) probeLocked() {
	w, err := fleetlog.OpenWriter(s.dir, s.opts)
	if err != nil {
		return
	}
	for len(s.buf) > 0 {
		if err := w.Append(s.buf[0]); err != nil {
			//parbor:droperr probe failed and the sink stays degraded; the probe writer's close error cannot add information
			w.Close()
			return
		}
		s.buf[0] = fleetlog.Event{}
		s.buf = s.buf[1:]
	}
	s.buf = nil
	s.w = w
	s.degraded = false
	s.reason = ""
}

// drain flushes and syncs the log for a daemon drain. A failure
// degrades instead of erroring: state persistence must proceed even
// when the log cannot.
func (s *logSink) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.degraded {
		s.probeLocked()
		if s.degraded {
			return
		}
	}
	if s.w == nil {
		return
	}
	if err := s.w.Sync(); err != nil {
		s.degradeLocked(err)
	}
}

// health reports the sink's degradation state for /healthz.
func (s *logSink) health() (degraded bool, reason string, buffered int, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.reason, len(s.buf), s.dropped
}

// close makes a final recovery attempt (flushing any backlog) and
// releases the writer.
func (s *logSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.degraded {
		s.probeLocked()
	}
	if s.w == nil {
		return nil
	}
	w := s.w
	s.w = nil
	return w.Close()
}
