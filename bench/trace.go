package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Spans of one statement
// share Stmt; Parent is the span that caused this one (-1 for the
// statement span itself). Times are nanoseconds since the pass began.
type span struct {
	Parent int32
	Stmt   int32
	Name   uint16 // index into tracer.names
	Start  int64
	End    int64
}

// tracer records spans in memory around the harness's own calls into
// each layer; the shims add leaf spans under whichever span is open.
// The traced pass has one client, so there is one open-span stack; the
// mutex only orders the client against server-side goroutines that
// reach the shims on its behalf.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	stmt  int32
	names []string
	byNm  map[string]uint16
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byNm: map[string]uint16{}, stmt: -1}
}

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.byNm[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.byNm[name] = id
	}
	return id
}

// begin opens a span under the innermost open one. A nil tracer (the
// untraced runs) makes begin and end no-ops.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else {
		t.stmt++
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{Parent: parent, Stmt: t.stmt, Name: t.nameID(name), Start: int64(now)})
	t.mu.Unlock()
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(now)
	t.mu.Unlock()
}

// leaf records a finished child span (a shim call) under the innermost
// open span; calls made while no statement is open are not recorded.
func (t *tracer) leaf(name string, start, end time.Time) {
	t.mu.Lock()
	if len(t.stack) > 0 {
		t.spans = append(t.spans, span{
			Parent: t.stack[len(t.stack)-1], Stmt: t.stmt, Name: t.nameID(name),
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	}
	t.mu.Unlock()
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus what child spans cover
}

// selfTimes computes, per span name, count, total and self time. A
// span's self time is its duration minus the part of it that its child
// spans cover (the union of their intervals, clipped to the parent).
func (t *tracer) selfTimes() map[string]*layerTime {
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[t.names[s.Name]]
		if lt == nil {
			lt = &layerTime{Name: t.names[s.Name]}
			out[lt.Name] = lt
		}
		dur := s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var cover, at int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, at), min(t.spans[k].End, s.End)
			if hi > lo {
				cover += hi - lo
				at = hi
			}
		}
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - cover)
	}
	return out
}

// write stores the spans as compact rows next to a name table.
func (t *tracer) write(dir, workload string, seed int64) error {
	rows := make([][6]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [6]int64{int64(i), int64(s.Parent), int64(s.Stmt), int64(s.Name), s.Start, s.End}
	}
	blob, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed,
		"columns": []string{"id", "parent", "stmt", "name", "start_ns", "end_ns"},
		"names":   t.names, "spans": rows,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), blob, 0o644)
}
