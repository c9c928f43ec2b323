// Command osrbench is the repository's benchmark: four seeded workloads
// driven closed-loop through internal/server over loopback HTTP, every
// answer checked against a harness-owned oracle, end-to-end metrics from
// an untraced timed pass and per-layer metrics from a separate traced
// pass. See README.md in this directory for what each number means.
//
//	bash bench/run.sh                                  all four workloads, seed 1
//	bash bench/run.sh -workload deep_cold -seed 7      one workload, end-to-end metrics
//	bash bench/run.sh -workload deep_cold -trace 1     one workload, per-layer metrics
//	bash bench/run.sh -compare old.json new.json ...   A/B verdicts from result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine is the block every result carries, so numbers from different
// boxes or commits are never compared by accident.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// result is one run of one workload in one mode. The last line a run
// prints is this object reduced to correct/attempted/failed/metrics.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Digest    string            `json:"digest"`
	Machine   machine           `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are reported next to the metrics but are not part of the
	// contract: sample counts, the percentile used for the tail, and the
	// churn latencies that are per-layer metrics in traced mode.
	Notes    map[string]metric `json:"notes,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func thisMachine() machine {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit,
	}
}

// setupRepeats is how many times an end-to-end run sets the system up;
// setup_s is the median, so one slow fsync or page-cache miss does not
// set it. Only the last rig is measured; the others are torn down.
const setupRepeats = 3

// dirs says where a run may write: result files and traces under out,
// WAL and replica state under scratch. Both are inside the checkout and
// git-ignored.
type dirs struct{ out, scratch string }

var checkoutDirs = dirs{out: "bench/out", scratch: ".bench_build"}

// runWorkload generates, sets up, measures and checks one workload.
func runWorkload(name string, seed int64, seconds float64, trace bool, sz sizes, d dirs) (*result, error) {
	genStart := time.Now()
	inst, err := generate(name, seed, sz)
	if err != nil {
		return nil, err
	}
	scratch, cleanup, err := scratchDir(d.scratch)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	r := newRunner(inst, sz, scratch)
	r.out = d.out
	genS := time.Since(genStart).Seconds()

	res := &result{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Digest: inst.digest, Machine: thisMachine(),
		Metrics: map[string]metric{}, Notes: map[string]metric{},
	}
	if trace {
		if err := r.traced(res, genS); err != nil {
			return nil, err
		}
	} else {
		res.Notes["harness.gen_s"] = metric{genS, "s"}
		if err := r.endToEnd(res, seconds); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Failures = r.tally.first
	return res, nil
}

// endToEnd measures what a user of the service sees, tracing off.
func (r *runner) endToEnd(res *result, seconds float64) error {
	var setups []float64
	var g *rig
	for i := 0; i < setupRepeats; i++ {
		if g != nil {
			if err := g.h.close(); err != nil {
				return fmt.Errorf("close rig %d: %w", i-1, err)
			}
		}
		var err error
		if g, err = r.setup(); err != nil {
			return err
		}
		setups = append(setups, g.setupS)
	}
	defer g.h.close()
	// Set-up is over: do not let the harness's copy of the dataset count
	// as the system's live heap. The heap is read here, after the same ops
	// on every run, and not after the timed pass, where on churn_durable it
	// grows with the number of cycles the box got through.
	r.ingest, r.inst.facts = nil, nil
	res.Metrics["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	dur := time.Duration(seconds * float64(time.Second))
	p := r.timed(g, dur)
	if p.ops == 0 {
		return fmt.Errorf("%s: no operation completed correctly; first failures: %v", r.inst.name, r.tally.first)
	}
	ws := windowed(p.done, p.queries, dur)
	t := quietQuartile(r.inst.name, ws)
	// The set-ups ended seconds before the pass that took the box's speed,
	// and its levels last minutes, so the same scaling applies; the contract
	// fixes this metric's name, so the one as clocked carries the suffix.
	res.Metrics["setup_s"] = metric{median(setups) / t.slowdown, "s"}
	res.Notes["setup_clocked_s"] = metric{median(setups), "s"}
	res.Metrics["query_qps_adj"] = metric{t.qpsAdj, "1/s"}
	res.Metrics["query_p50_adj_ms"] = metric{t.p50AdjMs, "ms"}
	res.Notes["query_qps"] = metric{t.qps, "1/s"}
	res.Notes["query_p50_ms"] = metric{t.p50ms, "ms"}
	res.Notes["check_ns_per_byte"] = metric{t.checkNs, "ns"}
	res.Notes["box_slowdown"] = metric{t.slowdown, "ratio"}
	res.Notes["query_qps_median_window"] = metric{median(ws.rates), "1/s"}
	res.Notes["query_p50_median_window_ms"] = metric{median(ws.medians) / 1e6, "ms"}
	res.Notes["live_heap_end_mb"] = metric{liveHeapMB(), "MB"}
	lats := make([]time.Duration, len(p.queries))
	for i, q := range p.queries {
		lats[i] = q.lat
	}
	sortDurations(lats)
	tail, pct := tailQuantile(lats)
	res.Notes["query_samples"] = metric{float64(len(lats)), "count"}
	res.Notes["query_tail_ms"] = metric{ms(tail), "ms"}
	res.Notes["query_tail_percentile"] = metric{pct * 100, "%"}
	res.Notes["failed_share"] = metric{float64(r.tally.failed) / float64(max(r.tally.attempted, 1)), "ratio"}
	if g.churn != nil {
		res.Notes["write_p50_ms"] = metric{ms(medianDur(p.writeLat)), "ms"}
		res.Notes["sub_event_p50_ms"] = metric{ms(medianDur(p.subLat)), "ms"}
		res.Notes["sub_event_samples"] = metric{float64(len(p.subLat)), "count"}
	}
	return nil
}

// print writes the human-readable report and, last, the contract line.
func (res *result) print() {
	m := res.Machine
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t digest=%s\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.Digest)
	fmt.Printf("machine: nproc=%d gomaxprocs=%d (engine shards=workers=gomaxprocs) cpu=%q go=%s commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.CPU, m.Go, m.Commit)
	table := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, n := range names {
			fmt.Printf("  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	table("metrics:", res.Metrics)
	table("notes:", res.Notes)
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	line, _ := json.Marshal(struct { // cannot fail: plain numbers and strings
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generator")
	seconds := flag.Float64("seconds", 25, "length of the timed pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced timed pass; 1: per-layer metrics from the traced pass")
	compare := flag.Bool("compare", false, "compare result files given as old new [old new ...] instead of running")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace != 0, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "osrbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace, compare bool, args []string) error {
	if compare {
		return compareFiles(os.Stdout, args)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if workload == "all" {
		return runAll(seed, seconds)
	}
	res, err := runWorkload(workload, seed, seconds, trace, fullSizes, checkoutDirs)
	if err != nil {
		return err
	}
	if err := writeJSON(resultPath(workload, trace), res); err != nil {
		return err
	}
	res.print()
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", workload, res.Failed, res.Attempted)
	}
	return nil
}

// resultPath is where a single-workload run leaves its result file.
func resultPath(workload string, trace bool) string {
	mode := "e2e"
	if trace {
		mode = "trace"
	}
	return filepath.Join(checkoutDirs.out, fmt.Sprintf("result-%s-%s.json", workload, mode))
}

// runAll runs every workload in both modes, each in a fresh process so
// no workload inherits another's heap, caches or scheduler state, and
// collects the results into one file -compare can read.
func runAll(seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []*result
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			traceFlag := "0"
			if trace {
				traceFlag = "1"
			}
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", traceFlag)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %s): %w", name, traceFlag, err)
			}
			var res result
			data, err := os.ReadFile(resultPath(name, trace))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &res); err != nil {
				return err
			}
			all = append(all, &res)
		}
	}
	path := filepath.Join(checkoutDirs.out, fmt.Sprintf("result-seed%d.json", seed))
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
