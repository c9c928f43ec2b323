package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	onesided "repro"
)

// write saves a source file in a temp dir.
func write(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tcFile = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
	a(u, w). a(w, v). b(v, goal).
	?- t(u, Y).
`

const multiFile = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- c(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
	a(u, w). c(w, v). b(v, goal).
`

// classify runs the classify command on src and returns what it printed.
func classify(t *testing.T, src string) string {
	t.Helper()
	var out strings.Builder
	if err := cmdClassify([]string{write(t, "in.dl", src)}, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestCmdClassify(t *testing.T) {
	want := `recursion t: 1 linear recursive rule, exit t(X, Y) :- b(X, Y).
  rule 1: t(X, Y) :- a(X, Z), t(Z, Y).
    predicate t: 1-sided (one-sided: Theorem 3.1 holds); uniformly bounded: false
    decision: one-sided
  plan bb: strategy=onesided mode=context carry-arity=1 verdict="one-sided"
  plan bf: strategy=onesided mode=context carry-arity=1 verdict="one-sided"
  plan fb: strategy=onesided mode=reduced carry-arity=1 verdict="one-sided"
  plan ff: strategy=onesided mode=full carry-arity=2 verdict="one-sided"
`
	if got := classify(t, tcFile); got != want {
		t.Fatalf("classify printed\n%s\nwant\n%s", got, want)
	}
	if err := cmdClassify([]string{}, io.Discard); err == nil {
		t.Fatal("expected error without file")
	}
	if err := cmdClassify([]string{filepath.Join(t.TempDir(), "missing.dl")}, io.Discard); err == nil {
		t.Fatal("expected error for missing file")
	}
	if err := cmdClassify([]string{write(t, "flat.dl", `p(X) :- q(X).`)}, io.Discard); err == nil {
		t.Fatal("expected error for a file without a recursion")
	}
}

// TestCmdClassifyMulti: each rule of a two-rule recursion is one-sided
// alone, but only a query whose bound column persists in both rules gets
// a one-sided plan; classify says so per adornment.
func TestCmdClassifyMulti(t *testing.T) {
	want := `recursion t: 2 linear recursive rules, exit t(X, Y) :- b(X, Y).
  rule 1: t(X, Y) :- a(X, Z), t(Z, Y).
    predicate t: 1-sided (one-sided: Theorem 3.1 holds); uniformly bounded: false
    decision: one-sided
  rule 2: t(X, Y) :- c(X, Z), t(Z, Y).
    predicate t: 1-sided (one-sided: Theorem 3.1 holds); uniformly bounded: false
    decision: one-sided
  plan bb: strategy=magic (answer predicate t__bb, 6 rewritten rules); onesided declined: eval: unsupported selection: bound column 1 is not persistent in recursive rule 1
  plan bf: strategy=magic (answer predicate t__bf, 6 rewritten rules); onesided declined: eval: unsupported selection: bound column 1 is not persistent in recursive rule 1
  plan fb: strategy=onesided mode=reduced carry-arity=1 (2 recursive rules, persistent-column reduction)
  plan ff: strategy=magic (answer predicate t__ff, 11 rewritten rules); onesided declined: eval: unsupported selection: 2 recursive rules and no bound column
`
	if got := classify(t, multiFile); got != want {
		t.Fatalf("classify printed\n%s\nwant\n%s", got, want)
	}
}

// TestClassifyMatchesPrepare ties classify to the engine: for every
// adornment, its plan line is what Prepare explains for a query of that
// adornment over the same file (less the adornment, which labels the
// line, and the plan-cache state).
func TestClassifyMatchesPrepare(t *testing.T) {
	for name, src := range map[string]string{"tc": tcFile, "multi": multiFile} {
		out := classify(t, src)
		eng, err := onesided.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load(src); err != nil {
			t.Fatal(err)
		}
		for _, ad := range []string{"bb", "bf", "fb", "ff"} {
			args := make([]string, len(ad))
			for i := range ad {
				args[i] = "u"
				if ad[i] == 'f' {
					args[i] = fmt.Sprintf("X%d", i)
				}
			}
			q, err := onesided.ParseQuery("t(" + strings.Join(args, ", ") + ")")
			if err != nil {
				t.Fatal(err)
			}
			pq, err := eng.Prepare(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			ex := pq.Explain()
			if ex.Adornment != ad {
				t.Fatalf("%s: %v has adornment %s", name, q, ex.Adornment)
			}
			ex.Adornment, ex.PlanCache = "", ""
			line := "  plan " + ad + ": " + ex.String() + "\n"
			if !strings.Contains(out, line) {
				t.Errorf("%s: classify printed\n%s\nwithout Prepare's line for %v\n%s", name, out, q, line)
			}
		}
		eng.Close()
	}
}

func TestCmdGraphAndExpand(t *testing.T) {
	path := write(t, "tc.dl", tcFile)
	if err := cmdGraph([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGraph([]string{"-plain", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGraph([]string{"-pred", "nosuch", path}); err == nil {
		t.Fatal("expected error for unknown predicate")
	}
	if err := cmdExpand([]string{"-k", "2", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdQueryEngines(t *testing.T) {
	path := write(t, "tc.dl", tcFile)
	for _, engine := range []string{"onesided", "magic", "seminaive"} {
		if err := cmdQuery([]string{"-engine", engine, path}); err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
	}
	// -v prints the counters and the storage footprint under each answer.
	if err := cmdQuery([]string{"-v", path}); err != nil {
		t.Fatalf("-v: %v", err)
	}
	// The paper-comparison baselines are library functions, not engines.
	for _, engine := range []string{"naive", "counting", "bogus"} {
		if err := cmdQuery([]string{"-engine", engine, path}); err == nil {
			t.Fatalf("expected error for unknown engine %q", engine)
		}
	}
	empty := write(t, "noquery.dl", `p(a, b).`)
	if err := cmdQuery([]string{empty}); err == nil {
		t.Fatal("expected error for file without queries")
	}
}

func TestCmdQueryFallsBackToMagic(t *testing.T) {
	// A repeated-variable query is outside the one-sided compiler's class;
	// the CLI must fall back to magic rather than fail.
	path := write(t, "loop.dl", `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(u, w). b(w, u).
		?- t(X, X).
	`)
	if err := cmdQuery([]string{path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdProve(t *testing.T) {
	path := write(t, "tc.dl", tcFile)
	if err := cmdProve([]string{"-tuple", "t(u, goal)", path}); err != nil {
		t.Fatal(err)
	}
	// Non-derivable tuple: reports, does not error.
	if err := cmdProve([]string{"-tuple", "t(goal, u)", path}); err != nil {
		t.Fatal(err)
	}
	// Variables rejected.
	if err := cmdProve([]string{"-tuple", "t(u, Y)", path}); err == nil {
		t.Fatal("expected error for non-ground tuple")
	}
	if err := cmdProve([]string{path}); err == nil {
		t.Fatal("expected error without -tuple")
	}
}

func TestPickDefinition(t *testing.T) {
	prog, _, err := loadSource(write(t, "two.dl", `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		s(X) :- c(X, Z), s(Z).
		s(X) :- d(X).
	`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pickDefinition(prog, ""); err == nil {
		t.Fatal("expected ambiguity error with two recursions")
	}
	d, err := pickDefinition(prog, "s")
	if err != nil {
		t.Fatal(err)
	}
	if d.Pred() != "s" {
		t.Fatalf("picked %s", d.Pred())
	}
}

// TestCmdQueryPersistence runs the query command twice over one -data
// directory: the second run must recover the first run's state (facts,
// rules, plan shapes) and the directory must hold a checkpoint snapshot
// after each clean exit.
func TestCmdQueryPersistence(t *testing.T) {
	path := write(t, "tc.dl", tcFile)
	dataDir := filepath.Join(t.TempDir(), "data")
	for run := 0; run < 2; run++ {
		if err := cmdQuery([]string{"-data", dataDir, path}); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
	}
	// The second run's exit checkpoint replaces the first run's snapshot.
	if snaps != 1 {
		t.Fatalf("data dir holds %d snapshots, want one", snaps)
	}
}

func TestCmdQueryCheckpointEvery(t *testing.T) {
	path := write(t, "tc.dl", tcFile)
	dir := filepath.Join(t.TempDir(), "data")
	// Threshold of 1: every accepted insert during Load crosses it, so
	// the run auto-checkpoints while loading and again on exit.
	if err := cmdQuery([]string{"-data", dir, "-checkpoint-every", "1", path}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("auto-checkpoints left %d snapshots, want one", snaps)
	}
	// Without -data the flag is rejected.
	if err := cmdQuery([]string{"-checkpoint-every", "5", path}); err == nil {
		t.Fatal("-checkpoint-every without -data accepted")
	}
}
