package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share Req;
// Parent is the span that caused this one (0 for an op's root). Times are
// nanoseconds since the trace started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; the traced run has one client, so it is
// not synchronised. The spans sit in the benchmark's own files, around its
// calls into each layer's exported functions: the program under test is
// not instrumented.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, req, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// do times fn as a child span.
func (t *tracer) do(parent int, req, name string, fn func()) time.Duration {
	id := t.begin(parent, req, name)
	fn()
	return t.end(id)
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// durationsMS returns the durations of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans with their self times.
func (t *tracer) write(path string) error {
	self := selfTimes(t.spans)
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{span: s, Self: self[s.ID]}
	}
	data, err := json.Marshal(map[string]any{"spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
