package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100 * ms},                   // 0: children cover 10-30, 25-50 (overlap), 90-100 (clipped)
		{name: "parser.ParseAtom", parent: 0, start: 10 * ms, end: 30 * ms}, // 1: leaf
		{name: "engine.Query", parent: 0, start: 25 * ms, end: 50 * ms},     // 2: one child 30-40
		{name: "eval", parent: 2, start: 30 * ms, end: 40 * ms},             // 3: leaf
		{name: "json.Marshal", parent: 0, start: 90 * ms, end: 120 * ms},    // 4: runs past its parent
		{name: "op", parent: -1, start: 200 * ms, end: 210 * ms},            // 5: no children
	}
	want := []time.Duration{50 * ms, 20 * ms, 15 * ms, 10 * ms, 30 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestChromeTraceFile(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, -1)
	tr.step("engine.Query", 7, root, func() {})
	tr.end(root)
	path := filepath.Join(t.TempDir(), "x.trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          map[string]float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "engine.Query" ||
		doc.TraceEvents[1].Cat != "engine" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Args["op"] != 7 || doc.TraceEvents[1].Args["parent"] != 0 {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}
