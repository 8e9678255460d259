package fleet

import (
	"context"
	"runtime"
	"sync"
)

// Pool is the fleet's bounded epoch scheduler. A fixed number of
// workers (defaulting to GOMAXPROCS) multiplex an unbounded set of
// enrolled modules: each quantum is exactly one transactional epoch
// (Module.runQuantum). One epoch is the quantum because it is the unit
// that is always checkpointable — onlinetest.Scheduler.RunEpoch leaves
// the module between epochs on every exit path — so a drain only ever
// waits for in-flight quanta, never for whole sweeps.
//
// Queueing discipline: one FIFO queue. Submissions join its tail; an
// idle worker claims its head and keeps running that module, quantum
// after quantum, while runQuantum reports it wants more (its chip
// arrays stay warm in cache). A module that still wants quanta when
// the pool drains goes back to the queue's tail, so a later start
// resumes it. Known fault: an unbounded module never frees its
// worker, so a module enrolled while every worker runs an unbounded
// module starves until the pool drains. The queue and the counters
// hang off one mutex: quanta are thousands of simulated passes long,
// so queue contention is noise, and a single lock keeps the
// idle/quiesce accounting exact (len(queue)+running is
// transactional).
type Pool struct {
	workers int

	mu       sync.Mutex
	cond     *sync.Cond // queue: signaled when work arrives or drain starts
	idle     *sync.Cond // quiesce: signaled when len(queue)+running hits zero
	queue    []*Module  //parbor:guardedby mu
	running  int        //parbor:guardedby mu — modules a worker holds right now
	draining bool       //parbor:guardedby mu
	started  bool       //parbor:guardedby mu

	wg sync.WaitGroup
}

// newPool builds a pool with the given worker bound; workers <= 0
// selects GOMAXPROCS.
func newPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	return p
}

// Workers returns the worker bound.
func (p *Pool) Workers() int { return p.workers }

// start launches the workers. ctx cancellation makes in-flight quanta
// return early (cancelled epochs roll back; nothing is lost) but does
// not terminate the workers — call drain for that, so shutdown always
// ends with every module checkpointed and no goroutine leaked.
func (p *Pool) start(ctx context.Context) {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker(ctx)
	}
}

// submit queues a module for its next quantum. Safe from any
// goroutine. Submissions during a drain are accepted but stay queued
// until a future start (the module is checkpointed either way).
func (p *Pool) submit(m *Module) {
	p.mu.Lock()
	p.queueLocked(m)
	p.mu.Unlock()
}

// drain stops the pool: workers finish the quantum they are on, then
// exit. Queued modules stay queued, and a module whose quantum ends
// wanting more is queued again (their snapshots are already current —
// modules are checkpointed at enrollment and after every epoch), so a
// later start picks every one of them up. Blocks until every worker
// has exited.
func (p *Pool) drain() {
	p.mu.Lock()
	p.draining = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	p.started = false
	p.draining = false
	p.mu.Unlock()
}

// quiesce blocks until the pool has no queued and no running work —
// i.e. every enrolled module has run to its budget (or failed, or
// been retired). It does not stop the workers.
func (p *Pool) quiesce() {
	p.mu.Lock()
	for len(p.queue)+p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

func (p *Pool) worker(ctx context.Context) {
	defer p.wg.Done()
	for {
		m := p.next()
		if m == nil {
			return
		}
		for p.runQuantum(ctx, m) {
		}
	}
}

// runQuantum runs one quantum of m and reports whether the worker
// should run m again. When it returns false the worker no longer holds
// m: it is finished, or requeued because the pool is draining.
func (p *Pool) runQuantum(ctx context.Context, m *Module) bool {
	again := m.runQuantum(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	if again && !p.draining {
		return true
	}
	p.running--
	if again {
		p.queueLocked(m)
	}
	if len(p.queue)+p.running == 0 {
		p.idle.Broadcast()
	}
	return false
}

// queueLocked appends m to the queue and wakes a worker. Caller holds
// p.mu.
func (p *Pool) queueLocked(m *Module) {
	p.queue = append(p.queue, m)
	p.cond.Signal()
}

// next blocks until there is a module to run (claiming it and
// incrementing running) or the pool is draining (returning nil).
func (p *Pool) next() *Module {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.draining {
			return nil
		}
		if len(p.queue) > 0 {
			m := p.queue[0]
			p.queue = p.queue[1:]
			p.running++
			return m
		}
		p.cond.Wait()
	}
}
