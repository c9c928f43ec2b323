package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testDirs(t *testing.T) dirs {
	d := t.TempDir()
	return dirs{out: d, scratch: d}
}

// Every workload, at test size, end to end once and traced twice: all
// answers agree with the oracle, every contract metric is reported with
// its unit, and the two traced runs of the one seed report byte-identical
// count metrics.
func TestWorkloadsRunCorrectAndCountsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		var traced []*result
		for _, trace := range []bool{false, true, true} {
			res, err := runWorkload(name, 3, 0.3, trace, shortSizes, testDirs(t))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d %v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if !trace {
				for _, m := range e2eMetrics {
					if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
						t.Errorf("%s: end-to-end metric %s = %+v", name, m.name, v)
					}
				}
				if len(res.Metrics) != len(e2eMetrics) {
					t.Errorf("%s: %d end-to-end metrics reported, contract has %d", name, len(res.Metrics), len(e2eMetrics))
				}
				continue
			}
			traced = append(traced, res)
			for _, m := range perLayerMetrics {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s: per-layer metric %s = %+v, want unit %s", name, m.name, v, m.unit)
				}
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("%s: %d per-layer metrics reported, contract has %d", name, len(res.Metrics), len(perLayerMetrics))
			}
		}
		for _, m := range countMetrics {
			if a, b := traced[0].Metrics[m], traced[1].Metrics[m]; a != b {
				t.Errorf("%s: %s was %v then %v", name, m, a.Value, b.Value)
			}
		}
	}
}

// A deliberately wrong expectation must fail the run, whichever part of
// the answer is wrong.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, corrupt := range []func(*expect){
		func(w *expect) { w.count++ },
		func(w *expect) { w.sum ^= 1 },
		func(w *expect) { w.strategy = stratMagic },
	} {
		inst, err := generate("deep_cold", 1, shortSizes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inst.queries {
			corrupt(&inst.queries[i].want)
		}
		d := testDirs(t)
		r := newRunner(inst, shortSizes, d.scratch)
		g, err := r.setup()
		if err != nil {
			t.Fatal(err)
		}
		g.h.close()
		if r.tally.failed != r.tally.attempted || r.tally.failed == 0 {
			t.Errorf("corrupted oracle: %d of %d checks failed, want all", r.tally.failed, r.tally.attempted)
		}
	}
	w := expect{count: 1, sum: rowHash([]string{"a", "b"}), strategy: stratOneSided}
	good := &queryResp{Answers: [][]string{{"a", "b"}}, Count: 1, Strategy: stratOneSided}
	if err := w.verify(good); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for _, bad := range []*queryResp{
		{Answers: [][]string{{"a", "c"}}, Count: 1, Strategy: stratOneSided},
		{Answers: [][]string{{"a", "b"}, {"a", "c"}}, Count: 2, Strategy: stratOneSided},
		{Answers: nil, Count: 0, Strategy: stratOneSided},
		{Answers: [][]string{{"a", "b"}}, Count: 2, Strategy: stratOneSided},
		{Answers: [][]string{{"a", "b"}}, Count: 1, Strategy: stratEDB},
	} {
		if w.verify(bad) == nil {
			t.Errorf("wrong answer %+v accepted", bad)
		}
	}
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, ",")
	}
	sort.Strings(out)
	return out
}

// The bitset oracle (one reverse walk per exit) and the per-query walks
// are two derivations of the same closure; they must agree, and both
// must agree with a hand-checked example.
func TestClosureOracle(t *testing.T) {
	c := newClosure(6, prefixed("n"), prefixed("e"))
	// 0 -> 1 -> 2 -> 0 (a cycle), 2 -> 3, 4 -> 5; exits at 3 (e0), 1 (e1), 5 (e2).
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 5}} {
		c.addStep(e[0], e[1])
	}
	c.addExit(3, 0)
	c.addExit(1, 1)
	c.addExit(5, 2)
	if got, want := sortedRows(c.from(0)), []string{"n0,e0", "n0,e1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("t(n0, Y) = %v, want %v", got, want)
	}
	if got, want := sortedRows(c.to(0)), []string{"n0,e0", "n1,e0", "n2,e0", "n3,e0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("t(X, e0) = %v, want %v", got, want)
	}
	if len(c.holds(4, 2)) != 1 || len(c.holds(4, 0)) != 0 {
		t.Errorf("t(n4, e2) / t(n4, e0) wrong")
	}
	sets := c.reachSets(3)
	for x := int32(0); x < 6; x++ {
		n, sum := c.expectFromSet(x, sets[x])
		wn, wsum := digestRows(c.from(x))
		if n != wn || sum != wsum {
			t.Errorf("node %d: bitset oracle (%d, %x) != walk oracle (%d, %x)", x, n, sum, wn, wsum)
		}
	}
	c.delStep(2, 3)
	c.delExit(1, 1)
	if got := c.from(0); len(got) != 0 {
		t.Errorf("after cutting 2->3 and dropping e1, t(n0, Y) = %v, want none", got)
	}
}

func TestForestOracle(t *testing.T) {
	// Two trees: 0 <- {1, 2}, 1 <- {3, 4}, 2 <- {5};  6 <- {7}. sg0: (0,0), (0,6).
	f := newForest(8, prefixed("g"))
	for _, e := range [][2]int32{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {7, 6}} {
		f.addParent(e[0], e[1])
	}
	f.addSG0(0, 0)
	f.addSG0(0, 6)
	if got, want := sortedRows(f.from(1)), []string{"g1,g1", "g1,g2", "g1,g7"}; !reflect.DeepEqual(got, want) {
		t.Errorf("sg(g1, Y) = %v, want %v", got, want)
	}
	if got, want := sortedRows(f.from(3)), []string{"g3,g3", "g3,g4", "g3,g5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("sg(g3, Y) = %v, want %v", got, want)
	}
	if len(f.holds(3, 5)) != 1 || len(f.holds(3, 7)) != 0 {
		t.Errorf("sg(g3, g5) / sg(g3, g7) wrong")
	}
	f.delParent(5, 2)
	if got, want := sortedRows(f.from(3)), []string{"g3,g3", "g3,g4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after retracting p(g5, g2): sg(g3, Y) = %v, want %v", got, want)
	}
}

// BENCHMARK.json (one directory up, when the test runs inside the
// repository) must carry the same workloads and end-to-end table as the
// code that judges them.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDoc) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloadDoc))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDoc[i].name || w.Why != workloadDoc[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, w.Name, workloadDoc[i].name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		c := e2eMetrics[i]
		better := "lower"
		if c.higher {
			better = "higher"
		}
		if m.Name != c.name || m.Unit != c.unit || m.Better != better || m.Bound != c.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		c := perLayerMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || (m.Better == "higher") != c.higher {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
}
