package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: its name, when it ran (offsets
// from the tracer's origin), the span that caused it (-1 for a root) and
// the op the whole tree belongs to.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory; nothing is written until the run ends.
// It is used from one goroutine (the traced pass is sequential).
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index, to pass as a child's parent
// and to end.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.origin) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, upto := time.Duration(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, upto), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, readable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans, with each span's self time in its
// args, as {"traceEvents": [...]}.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		layer := s.name
		for j, c := range s.name {
			if c == '.' {
				layer = s.name[:j]
				break
			}
		}
		events[i] = chromeEvent{
			Name: s.name, Cat: layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.op, "parent": s.parent, "self_us": us(self[i])},
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}
