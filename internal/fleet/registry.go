package fleet

import (
	"errors"
	"fmt"
	"sync"
)

// Registry is the fleet's membership table: enrolled modules by ID,
// with enrollment order preserved so listings and persisted state are
// stable. It is safe for concurrent use; it holds no scheduling state
// (that is the Pool's job) and no simulation state (the Module's).
type Registry struct {
	mu    sync.Mutex
	byID  map[string]*Module //parbor:guardedby mu
	order []string           //parbor:guardedby mu
}

// errAlreadyEnrolled marks an enrollment whose ID is taken.
var errAlreadyEnrolled = errors.New("already enrolled")

// newRegistry builds an empty registry.
func newRegistry() *Registry {
	return &Registry{byID: make(map[string]*Module)}
}

// add enrolls a module, rejecting duplicate IDs.
func (r *Registry) add(m *Module) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := m.ID()
	if _, ok := r.byID[id]; ok {
		return fmt.Errorf("fleet: module %s %w", id, errAlreadyEnrolled)
	}
	r.byID[id] = m
	r.order = append(r.order, id)
	return nil
}

// Get looks a module up by ID.
func (r *Registry) Get(id string) (*Module, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byID[id]
	return m, ok
}

// remove retires and forgets a module. It reports whether the ID was
// enrolled. The module object stays valid — an in-flight quantum
// finishes and drops it.
func (r *Registry) remove(id string) bool {
	r.mu.Lock()
	m, ok := r.byID[id]
	if ok {
		delete(r.byID, id)
		for i, v := range r.order {
			if v == id {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	if ok {
		m.retire()
	}
	return ok
}

// List returns the enrolled modules in enrollment order.
func (r *Registry) List() []*Module {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Module, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// Len returns the number of enrolled modules.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
