// Command osr is the one-sided-recursion workbench: it reports, per
// recursion, the paper's analysis of each recursive rule (Theorem 3.1 /
// 3.3 / 3.4) and the strategy the engine chooses for each adornment,
// renders A/V graphs (Figs. 2–6), prints expansion prefixes (Fig. 1),
// and evaluates queries with the paper's one-sided schema or the
// baseline engines.
//
// Usage:
//
//	osr classify file.dl            # per-rule analysis + per-adornment strategy
//	osr graph -pred t [-plain] file.dl
//	osr expand -pred t -k 4 file.dl
//	osr query [-engine onesided|magic|seminaive] [-data dir] [-checkpoint-every n] [-timeout d] file.dl
//
// The query command drives the Engine façade: plans are prepared once
// per query, the planner auto-selects the one-sided schema or a
// fallback, and the chosen strategy is reported per query. classify
// reports the same planner's choice (Engine.Analyze), so what it prints
// for an adornment is what query does with a query of that adornment.
//
// Input files use Prolog syntax; facts live alongside rules and queries
// are written "?- t(a, Y).".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	onesided "repro"
	"repro/internal/ast"
	"repro/internal/avgraph"
	"repro/internal/eval"
	"repro/internal/expand"
	"repro/internal/proof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "classify":
		err = cmdClassify(os.Args[2:], os.Stdout)
	case "graph":
		err = cmdGraph(os.Args[2:])
	case "expand":
		err = cmdExpand(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "prove":
		err = cmdProve(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "osr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `osr - one-sided recursion workbench
subcommands:
  classify <file>                      analyse every recursion in the file and
                                       print the strategy chosen per adornment
  graph -pred <p> [-plain] <file>      render the (full) A/V graph
  expand -pred <p> [-k n] <file>       print expansion strings
  query [-engine e] [-data dir] [-checkpoint-every n] [-timeout d] <file>
                                       answer the file's ?- queries
  prove -tuple "t(a, b)" <file>        find and minimize a derivation
engines: onesided (default: auto-select with magic fallback),
         magic, seminaive
-data dir persists facts, rules, and plan shapes across runs (the
engine checkpoints on exit to one snapshot and recovers from it on the
next start); -checkpoint-every n also checkpoints automatically after
every n accepted fact inserts.
Repeated queries report result-cache=hit|updated|rebuilt in their
explain line: the engine serves materialized answers and maintains
them incrementally across inserts instead of recomputing.
-timeout d bounds each query's evaluation (e.g. -timeout 500ms); an
expired query aborts mid-fixpoint and reports the deadline error.`)
}

func loadSource(path string) (*onesided.Program, []onesided.Atom, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return onesided.ParseSource(string(data))
}

// recursions returns the program's linear recursions: per predicate,
// its recursive rules each paired with the one exit rule, in program
// order.
func recursions(p *ast.Program) map[string][]*ast.Definition {
	out := make(map[string][]*ast.Definition)
	for _, r := range p.Rules {
		pred := r.Head.Pred
		if _, seen := out[pred]; seen || !r.IsRecursiveFor() {
			continue
		}
		if defs, err := ast.ExtractRecursion(p, pred); err == nil {
			out[pred] = defs
		}
	}
	return out
}

// cmdClassify prints Engine.Analyze's report for every recursion in the
// file, in predicate order.
func cmdClassify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("classify needs exactly one file")
	}
	prog, _, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	recs := recursions(prog)
	if len(recs) == 0 {
		return fmt.Errorf("no linear recursion found")
	}
	eng, err := onesided.Open(onesided.WithProgram(prog))
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, pred := range slices.Sorted(maps.Keys(recs)) {
		a, err := eng.Analyze(pred)
		if err != nil {
			return err
		}
		fmt.Fprint(w, a)
	}
	return nil
}

func cmdProve(args []string) error {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	tuple := fs.String("tuple", "", `ground goal, e.g. "t(a, b)"`)
	pred := fs.String("pred", "", "recursive predicate (default: the only one)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *tuple == "" {
		return fmt.Errorf("prove needs -tuple and exactly one file")
	}
	prog, _, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	goal, err := onesided.ParseQuery(*tuple)
	if err != nil {
		return err
	}
	db := onesided.NewDatabase()
	rules := eval.SplitFacts(prog, func(pred string, consts []string) { db.AddFact(pred, consts...) })
	want := *pred
	if want == "" {
		want = goal.Pred
	}
	d, err := ast.ExtractDefinition(rules, want)
	if err != nil {
		return err
	}
	consts := make([]string, goal.Arity())
	for i, a := range goal.Args {
		if a.IsVar() {
			return fmt.Errorf("prove needs a ground tuple; %v contains variable %s", goal, a.Name)
		}
		consts[i] = a.Name
	}
	p := proof.Find(d, db, consts)
	if p == nil {
		fmt.Printf("no derivation of %v\n", goal)
		return nil
	}
	report := func(tag string, pr *proof.Proof) {
		fmt.Printf("%s derivation (depth %d):\n", tag, pr.Depth())
		for _, a := range pr.GroundAtoms() {
			fmt.Printf("  %v\n", a)
		}
	}
	report("found", p)
	min := p.Minimize()
	if min.Depth() < p.Depth() {
		report("after Lemma 4.1 splicing", min)
	} else {
		fmt.Println("no repeated call context: already splice-minimal")
	}
	return nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	pred := fs.String("pred", "", "recursive predicate (default: the only one)")
	plain := fs.Bool("plain", false, "render the plain A/V graph instead of the full one")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("graph needs exactly one file")
	}
	prog, _, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := pickDefinition(prog, *pred)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(avgraph.NewFull(d).DOT(d.Pred()))
		return nil
	}
	if *plain {
		fmt.Print(avgraph.New(d).Render())
	} else {
		fmt.Print(avgraph.NewFull(d).Render())
	}
	return nil
}

func cmdExpand(args []string) error {
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	pred := fs.String("pred", "", "recursive predicate (default: the only one)")
	k := fs.Int("k", 3, "number of recursive applications")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expand needs exactly one file")
	}
	prog, _, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := pickDefinition(prog, *pred)
	if err != nil {
		return err
	}
	for i, s := range expand.Expand(d, *k) {
		fmt.Printf("s%d: %v\n", i, s)
	}
	return nil
}

// strategyChains maps the -engine flag to the Engine strategy chain.
// "onesided" (the default) is the full auto-selection chain: the paper's
// planner (multi-rule recursions included), Magic Sets fallback, and
// base-relation lookup — the optimize-then-detect behavior the old CLI
// hand-rolled.
var strategyChains = map[string][]string{
	"onesided":  nil, // engine default: onesided, magic, edb
	"magic":     {"magic", "edb"},
	"seminaive": {"seminaive", "edb"},
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	engine := fs.String("engine", "onesided", "onesided | magic | seminaive")
	verbose := fs.Bool("v", false, "print instrumentation counters")
	dataDir := fs.String("data", "", "persist facts, rules, and plan shapes in this directory (survives restarts)")
	ckptEvery := fs.Int("checkpoint-every", 0, "with -data: auto-checkpoint after N accepted fact inserts (0 disables)")
	timeout := fs.Duration("timeout", 0, "per-query evaluation deadline, e.g. 500ms or 2s (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query needs exactly one file")
	}
	chain, ok := strategyChains[*engine]
	if !ok {
		return fmt.Errorf("unknown engine %q", *engine)
	}
	if *ckptEvery > 0 && *dataDir == "" {
		return fmt.Errorf("-checkpoint-every needs -data")
	}
	var opts []onesided.Option
	if chain != nil {
		opts = append(opts, onesided.WithStrategies(chain...))
	}
	if *dataDir != "" {
		opts = append(opts, onesided.WithPersistence(*dataDir))
		if *ckptEvery > 0 {
			opts = append(opts, onesided.WithAutoCheckpoint(*ckptEvery))
		}
	}
	eng, err := onesided.Open(opts...)
	if err != nil {
		return err
	}
	defer eng.Close()
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	// Loading is idempotent over a persistent data dir: facts dedup in
	// storage, rules dedup in the engine, so re-running the CLI against
	// the same file does not grow the state.
	queries, err := eng.Load(string(data))
	if err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Printf("[data=%s cache %s]\n", *dataDir, eng.CacheStats())
	}
	if len(queries) == 0 {
		return fmt.Errorf("no ?- queries in file")
	}
	ctx := context.Background()
	// One PreparedQuery per query shape: repeated queries of a shape
	// rebind the same compiled skeleton (plan-cache=bind in the explain
	// line) instead of re-planning.
	shapes := make(map[string]*onesided.PreparedQuery)
	for _, q := range queries {
		var pq *onesided.PreparedQuery
		var err error
		if prev, ok := shapes[onesided.QueryShape(q)]; ok {
			pq, err = prev.BindAtom(q)
		}
		if pq == nil || err != nil {
			if pq, err = eng.Prepare(nil, q); err == nil {
				shapes[onesided.QueryShape(q)] = pq
			}
		}
		if err != nil {
			return fmt.Errorf("query %v: %v", q, err)
		}
		qctx, cancel := ctx, context.CancelFunc(func() {})
		if *timeout > 0 {
			// The deadline rides the engine's context plumbing into the
			// fixpoint loops; an expired query reports the error, not a
			// partial answer set.
			qctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		rows, err := pq.Query(qctx)
		cancel()
		if err != nil {
			return fmt.Errorf("query %v: %v", q, err)
		}
		fmt.Printf("?- %v.\n", q)
		st := rows.Stats()
		fmt.Printf("   [%s iterations=%d seen=%d]\n", rows.Explain(), st.Iterations, st.SeenSize)
		for _, row := range rows.Strings() {
			fmt.Printf("   %s\n", row)
		}
		if rows.Len() == 0 {
			fmt.Println("   (no answers)")
		}
		if *verbose {
			c := rows.Counters()
			fmt.Printf("   counters: examined=%d lookups=%d full-scans=%d inserts=%d\n",
				c.TuplesExamined, c.IndexLookups, c.FullScans, c.Inserts)
			fmt.Printf("   storage bytes: %s\n", eng.DB().Footprint())
		}
	}
	if *dataDir != "" {
		// Compact on clean exit so the next run recovers from a fresh
		// snapshot (with the session's plan shapes) instead of replaying
		// the whole log.
		if err := eng.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return eng.Close()
}

// pickDefinition returns the two-rule recursion for pred, or the file's
// only one when pred is empty.
func pickDefinition(p *onesided.Program, pred string) (*ast.Definition, error) {
	defs := make(map[string]*ast.Definition)
	for name, rec := range recursions(p) {
		if len(rec) == 1 {
			defs[name] = rec[0]
		}
	}
	if pred != "" {
		d, ok := defs[pred]
		if !ok {
			return nil, fmt.Errorf("no two-rule linear recursion for %q", pred)
		}
		return d, nil
	}
	if len(defs) == 1 {
		for _, d := range defs {
			return d, nil
		}
	}
	return nil, fmt.Errorf("found %d recursions; use -pred to choose", len(defs))
}
