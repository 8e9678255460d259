package fleet

import (
	"context"
	"runtime"
	"sync"
)

// Pool is the fleet's bounded work-stealing epoch scheduler. A fixed
// number of workers (defaulting to GOMAXPROCS) multiplex an unbounded
// set of enrolled modules: each dispatch runs exactly one transactional
// epoch (Module.RunQuantum) and requeues the module if it wants more.
// One epoch is the quantum because it is the unit that is always
// checkpointable — onlinetest.Scheduler.RunEpoch leaves the module
// between epochs on every exit path — so a drain only ever waits for
// in-flight quanta, never for whole sweeps.
//
// Queueing discipline: each worker owns a FIFO deque and prefers its
// own head (modules it recently ran — their chip arrays are warm in
// cache); new enrollments land in a shared injector queue; an idle
// worker first drains its deque, then the injector, then steals from
// the TAIL of a sibling's deque — the classic split that keeps owners
// and thieves off the same end. All queues hang off one mutex: quanta
// are thousands of simulated passes long, so queue contention is
// noise, and a single lock keeps the idle/quiesce accounting exact
// (pending+running is transactional) where per-deque atomics would
// have windows that deadlock Quiesce.
type Pool struct {
	workers int

	mu       sync.Mutex
	cond     *sync.Cond  // queues: signaled when work arrives or drain starts
	idle     *sync.Cond  // quiesce: signaled when pending+running hits zero
	local    [][]*Module //parbor:guardedby mu
	injector []*Module   //parbor:guardedby mu
	pending  int         //parbor:guardedby mu — queued modules (all deques + injector)
	running  int         //parbor:guardedby mu — quanta executing right now
	draining bool        //parbor:guardedby mu
	started  bool        //parbor:guardedby mu

	wg sync.WaitGroup
}

// NewPool builds a pool with the given worker bound; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		local:   make([][]*Module, workers),
	}
	p.cond = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	return p
}

// Workers returns the worker bound.
func (p *Pool) Workers() int { return p.workers }

// Start launches the workers. ctx cancellation makes in-flight quanta
// return early (cancelled epochs roll back; nothing is lost) but does
// not terminate the workers — call Drain for that, so shutdown always
// ends with every module checkpointed and no goroutine leaked.
func (p *Pool) Start(ctx context.Context) {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker(ctx, i)
	}
}

// Submit queues a module for its next quantum. Safe from any
// goroutine, including workers themselves. Submissions during a drain
// are accepted but sit in the injector until a future Start (the
// module is checkpointed either way).
func (p *Pool) Submit(m *Module) {
	p.mu.Lock()
	p.injector = append(p.injector, m)
	p.pending++
	p.cond.Signal()
	p.mu.Unlock()
}

// Drain stops the pool: workers finish the quantum they are on, then
// exit. Queued-but-not-running modules stay queued (their snapshots
// are already current — modules are checkpointed at enrollment and
// after every epoch). Blocks until every worker has exited.
func (p *Pool) Drain() {
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

// Quiesce blocks until the pool has no queued and no running work —
// i.e. every enrolled module has run to its budget (or failed, or
// been retired). It does not stop the workers.
func (p *Pool) Quiesce() {
	p.mu.Lock()
	for p.pending+p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

func (p *Pool) worker(ctx context.Context, id int) {
	defer p.wg.Done()
	for {
		m := p.next(id)
		if m == nil {
			return
		}
		again := m.RunQuantum(ctx)
		p.mu.Lock()
		p.running--
		if again && !p.draining {
			p.local[id] = append(p.local[id], m)
			p.pending++
			// The worker loops straight back into next and will take
			// its own head; signal anyway in case this worker instead
			// exits on a racing drain.
			p.cond.Signal()
		}
		if p.pending+p.running == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}

// next blocks until there is a module to run (claiming it and
// incrementing running) or the pool is draining (returning nil).
func (p *Pool) next(id int) *Module {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.draining {
			return nil
		}
		if q := p.local[id]; len(q) > 0 {
			m := q[0]
			p.local[id] = q[1:]
			p.claimLocked()
			return m
		}
		if len(p.injector) > 0 {
			m := p.injector[0]
			p.injector = p.injector[1:]
			p.claimLocked()
			return m
		}
		for k := 1; k < p.workers; k++ {
			v := (id + k) % p.workers
			if q := p.local[v]; len(q) > 0 {
				m := q[len(q)-1]
				p.local[v] = q[:len(q)-1]
				p.claimLocked()
				return m
			}
		}
		p.cond.Wait()
	}
}

// claimLocked moves one unit of work from pending to running. Caller
// holds p.mu.
func (p *Pool) claimLocked() {
	p.pending--
	p.running++
}
