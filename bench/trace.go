package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin. Spans of one module, HTTP
// request or analytics query share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; they are written
// out once, when the run ends. A nil *tracer is the untraced run: every
// method is a no-op that returns span id 0, so workload code calls it
// unconditionally.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  int64
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(parent int64, name, req string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, name: name, req: req, start: t.now()}
}

// end closes the span and records it.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	s.t.record(span{ID: s.id, Parent: s.parent, Name: s.name, Req: s.req, Start: s.start, End: s.t.now()})
}

// add records an already completed span and returns its id.
func (t *tracer) add(parent int64, name, req string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.record(span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// split divides the finished span id at boundary into two child spans,
// before and after, and moves id's existing children under whichever of
// the two their start falls in. It lets a caller attribute phases of a
// call it cannot instrument from inside, given one observable event
// that separates them.
func (t *tracer) split(id int64, boundary int64, before, after string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent *span
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			parent = &t.spans[i]
			break
		}
	}
	if parent == nil || boundary <= parent.Start || boundary >= parent.End {
		return
	}
	a := span{ID: t.nextID.Add(1), Parent: id, Name: before, Req: parent.Req, Start: parent.Start, End: boundary}
	b := span{ID: t.nextID.Add(1), Parent: id, Name: after, Req: parent.Req, Start: boundary, End: parent.End}
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent == id {
			if s.Start < boundary {
				s.Parent = a.ID
			} else {
				s.Parent = b.ID
			}
		}
	}
	t.spans = append(t.spans, a, b)
}

// layerTimes is the per-span-name breakdown of one root span.
type layerTimes struct {
	root float64            // root span duration, seconds
	self map[string]float64 // seconds: span time not covered by its children
	incl map[string]float64 // seconds: whole span time
	// selfSum is the sum of every span's self time in the tree. When no
	// two siblings overlap it equals root; the difference measures how
	// well the spans nest.
	selfSum float64
}

// layers computes self and inclusive times per span name over the tree
// under root. A span's self time is its duration minus the part of it
// that the union of its children (clipped to it) covers.
func (t *tracer) layers(root int64) layerTimes {
	lt := layerTimes{self: map[string]float64{}, incl: map[string]float64{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]int, len(t.spans))
	rootIdx := -1
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
		if s.ID == root {
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		return lt
	}
	lt.root = float64(t.spans[rootIdx].End-t.spans[rootIdx].Start) / 1e9
	stack := []int{rootIdx}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := t.spans[i]
		kids := children[s.ID]
		stack = append(stack, kids...)
		iv := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			c := t.spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		dur := float64(s.End-s.Start) / 1e9
		self := dur - float64(unionLen(iv))/1e9
		lt.self[s.Name] += self
		lt.incl[s.Name] += dur
		lt.selfSum += self
	}
	return lt
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write saves every span as one JSON document.
func (t *tracer) write(path, workload string, seed uint64, root int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Schema   string `json:"schema"`
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Root     int64  `json:"root"`
		Spans    []span `json:"spans"`
	}{"parborbench/spans/v1", workload, seed, root, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
