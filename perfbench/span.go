package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end and the span
// that caused it (0 = none). Times are nanoseconds since the tracer
// started, on the monotonic clock.
type span struct {
	id, parent int32
	name       string
	start, end int64
}

// tracer keeps spans in memory for one traced composition. A nil
// *tracer records nothing, so the untraced twin of a composition runs
// the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, end: -1})
	t.mu.Unlock()
	return id
}

// child opens a span under parent, or records nothing when parent is
// 0 (the work is outside any measured region).
func (t *tracer) child(name string, parent int32) int32 {
	if parent == 0 {
		return 0
	}
	return t.begin(name, parent)
}

// end closes span id (0 = a span that was never opened).
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval
// that its children cover (the union of the children's intervals, so
// children running on another goroutine are not counted twice).
func (t *tracer) selfTimes() map[string]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		out[s.name] += (s.end - s.start) - covered(children[s.id], s.start, s.end)
	}
	return out
}

// wall is the duration of the first span named name.
func (t *tracer) wall(name string) int64 {
	for _, s := range t.spans {
		if s.name == name {
			return s.end - s.start
		}
	}
	return 0
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
