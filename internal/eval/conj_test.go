package eval

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/datagen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// planString renders a conjunction's probe plans, one atom after the
// other in evaluation order: the keys (column=constant or =variable), the
// outs (column>variable), the eqs (column=column) and the existential
// mark.
func planString(c *compiledConj, syms *storage.SymbolTable) string {
	name := make(map[int]string)
	for v, s := range c.varSlot {
		name[s] = v
	}
	var atoms []string
	for i, pp := range c.probes {
		var parts []string
		for _, k := range pp.keys {
			if k.ref.isConst {
				parts = append(parts, fmt.Sprintf("%d=%s", k.col, syms.Name(k.ref.val)))
			} else {
				parts = append(parts, fmt.Sprintf("%d=%s", k.col, name[k.ref.slot]))
			}
		}
		for _, o := range pp.outs {
			parts = append(parts, fmt.Sprintf("%d>%s", o.col, name[o.slot]))
		}
		for _, e := range pp.eqs {
			parts = append(parts, fmt.Sprintf("%d=%d", e[0], e[1]))
		}
		if pp.exist {
			parts = append(parts, "exist")
		}
		pred := c.atoms[i].pred
		if c.atoms[i].alt {
			pred = "Δ" + pred
		}
		atoms = append(atoms, pred+"["+strings.Join(parts, " ")+"]")
	}
	return strings.Join(atoms, " ")
}

func probeFacts(db *storage.Database, facts string) {
	for _, f := range strings.Fields(facts) {
		a := parser.MustParseAtom(f)
		args := make([]string, len(a.Args))
		for i, t := range a.Args {
			args[i] = t.Name
		}
		db.AddFact(a.Pred, args...)
	}
}

// TestCompiledProbePlans pins what compileConj decides per atom — which
// arguments are keys, which bind, which must agree — for each binding
// shape the walk used to discover with its bound flags, and what walking
// the plan then yields and counts.
func TestCompiledProbePlans(t *testing.T) {
	db := storage.NewDatabase()
	probeFacts(db, "p(1,1) p(1,2) p(2,2) p(3,1) e(1,2) e(2,3) e(3,3) d(x) d(y)")
	resolve := func(pred string, alt bool) *storage.Relation { return db.Relation(pred) }
	cases := []struct {
		name, body string
		bound      map[string]string // variables bound on entry, and their values
		needed     []string
		plan       string
		want       string // the solutions, projected on needed, sorted
		counted    storage.Counters
	}{
		{name: "constant", body: "p(1, X)", needed: []string{"X"},
			plan: "p[0=1 1>X]", want: "[1] [2]",
			counted: storage.Counters{IndexLookups: 1, TuplesExamined: 2}},
		{name: "repeated free variable", body: "p(X, X)", needed: []string{"X"},
			plan: "p[0>X 1=0]", want: "[1] [2]",
			counted: storage.Counters{FullScans: 1, TuplesExamined: 4}},
		{name: "repeated bound variable", body: "p(X, X)", bound: map[string]string{"X": "2"}, needed: []string{"X"},
			plan: "p[0=X 1=X]", want: "[2]",
			counted: storage.Counters{IndexLookups: 1, TuplesExamined: 1}},
		{name: "bound on entry, then by the first atom", body: "p(Y, Z), e(X, Y)", bound: map[string]string{"X": "1"}, needed: []string{"Z"},
			plan: "e[0=X 1>Y] p[0=Y 1>Z]", want: "[2]",
			counted: storage.Counters{IndexLookups: 2, TuplesExamined: 2}},
		{name: "constant and variable keys, a repeat inside the atom", body: "e(X, Y), p(Y, Y)", bound: map[string]string{"X": "1"}, needed: []string{"Y"},
			plan: "e[0=X 1>Y] p[0=Y 1=Y]", want: "[2]",
			counted: storage.Counters{IndexLookups: 2, TuplesExamined: 2}},
		// d(W) binds nothing anyone reads: one row of it decides.
		{name: "existential atom", body: "e(X, Y), d(W)", bound: map[string]string{"X": "2"}, needed: []string{"Y"},
			plan: "e[0=X 1>Y] d[0>W exist]", want: "[3]",
			counted: storage.Counters{IndexLookups: 1, FullScans: 1, TuplesExamined: 2}},
		{name: "nothing needed", body: "e(X, Y), p(Y, Z)", bound: map[string]string{"X": "1"}, needed: []string{},
			plan: "e[0=X 1>Y] p[0=Y 1>Z exist]", want: "[]",
			counted: storage.Counters{IndexLookups: 2, TuplesExamined: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := parser.MustParseRule("sol :- " + tc.body + ".").Body
			ss := newSlotSpace()
			initBound, needed := make(map[string]bool), make(map[string]bool)
			for v := range tc.bound {
				initBound[v] = true
			}
			for _, v := range tc.needed {
				needed[v] = true
			}
			conj := compileConj(body, nil, ss, db.Syms, initBound, needed)
			if got := planString(conj, db.Syms); got != tc.plan {
				t.Fatalf("plan %s, want %s", got, tc.plan)
			}
			slots := make([]storage.Value, conj.nslots)
			for v, c := range tc.bound {
				slots[ss.slot(v)] = db.Syms.Intern(c)
			}
			var got []string
			tally := db.Stats.Tally()
			conj.run(resolve, &tally, slots, func(s []storage.Value) bool {
				sol := make([]string, len(tc.needed))
				for i, v := range tc.needed {
					sol[i] = db.Syms.Name(s[ss.slot(v)])
				}
				got = append(got, fmt.Sprint(sol))
				return true
			})
			sort.Strings(got)
			if strings.Join(got, " ") != tc.want {
				t.Fatalf("solutions %v, want %s", got, tc.want)
			}
			before := db.Stats.Snapshot()
			tally.Flush()
			if counted := db.Stats.Snapshot().Sub(before); counted != tc.counted {
				t.Fatalf("counted %+v, want %+v", counted, tc.counted)
			}
		})
	}

	tuple := func(consts ...string) storage.Tuple {
		out := make(storage.Tuple, len(consts))
		for i, c := range consts {
			out[i] = db.Syms.Intern(c)
		}
		return out
	}
	// A head-bound check: every head variable is a key of the body, and a
	// head that repeats a variable, or holds a constant, is checked against
	// the candidate before the body is walked.
	t.Run("head check", func(t *testing.T) {
		for _, hc := range []struct {
			rule, plan string
			holds      map[string]bool
		}{
			{"q(X, X) :- e(X, Y).", "e[0=X 1>Y exist]",
				map[string]bool{"1,1": true, "2,2": true, "1,2": false, "2,1": false, "x,x": false}},
			{"q(X, 3) :- e(X, Y), p(Y, Y).", "e[0=X 1>Y] p[0=Y 1=Y exist]",
				map[string]bool{"1,3": true, "1,1": false, "2,3": false}},
		} {
			check := compileHeadCheck(parser.MustParseRule(hc.rule), map[string]bool{}, db.Syms)
			if got := planString(check.conj, db.Syms); got != hc.plan {
				t.Fatalf("%s: plan %s, want %s", hc.rule, got, hc.plan)
			}
			for cand, want := range hc.holds {
				if got := check.holds(resolve, nil, tuple(strings.Split(cand, ",")...)); got != want {
					t.Errorf("%s holds(%s) = %v, want %v", hc.rule, cand, got, want)
				}
			}
		}
	})

	// A delta variant over a pre-deletion state: the Δ atom first, the
	// others read as live ∪ left with the same keys, and an existential
	// atom still stops at its first witness, wherever it is.
	t.Run("delta atom with left", func(t *testing.T) {
		delta, left := storage.NewRelation(2, nil), storage.NewRelation(2, nil)
		delta.InsertBatch([]storage.Tuple{tuple("1", "2"), tuple("3", "7")})
		left.InsertBatch([]storage.Tuple{tuple("2", "9"), tuple("7", "7")})
		res := func(pred string, alt bool) *storage.Relation {
			if alt {
				return delta
			}
			return db.Relation(pred)
		}
		derive := func(rule string) (plan string, got []string) {
			v := compileRuleVariant(parser.MustParseRule(rule), map[string]bool{}, db.Syms, 0)
			v.derive(res, map[string]*storage.Relation{"p": left}, nil, func(tup storage.Tuple) {
				got = append(got, strings.Join(AnswerStrings(tupleRel(tup), db.Syms), ""))
			})
			sort.Strings(got)
			return planString(v.conj, db.Syms), got
		}
		// p(2, _) is live as (2,2) and left as (2,9); p(7, _) only left.
		if plan, got := derive("r(X, Z) :- e(X, Y), p(Y, Z)."); plan != "Δe[0>X 1>Y] p[0=Y 1>Z]" || fmt.Sprint(got) != "[1,2 1,9 3,7]" {
			t.Fatalf("plan %s derived %v", plan, got)
		}
		// One derivation per Δ tuple: the live witness of p(2, _) ends the
		// atom before its left part is read.
		if plan, got := derive("r(X) :- e(X, Y), p(Y, Z)."); plan != "Δe[0>X 1>Y] p[0=Y 1>Z exist]" || fmt.Sprint(got) != "[1 3]" {
			t.Fatalf("plan %s derived %v", plan, got)
		}
	})
}

// tupleRel wraps one tuple as a relation, for AnswerStrings.
func tupleRel(t storage.Tuple) *storage.Relation {
	r := storage.NewRelation(len(t), nil)
	r.Insert(t)
	return r
}

// TestLevelEntriesStagedAndPerContext runs the level loop through each of
// its entries. Transitive closure's f and g are one atom probed by the
// context value: the worker probes them itself, and f gathers — storage
// hands it the successors' columns, staged on a wide level and one key at
// a time on a chain, and no row of f reaches solve — carrying the
// context's anchors along when the plan folds some; g's rows are yielded
// to solve. Every level of the chain is one context, which takes the
// straight path — no probe staged, g's rows through first — and the wide
// levels of the staged cases do not. A staged f with a second atom continues each row at that atom
// (solve). The pair recursion's f is three atoms whose first takes both
// context columns as keys, and its g likewise: no single key to probe by,
// so each context walks the whole conjunction (step(0)). Either way the
// answers are naive evaluation's.
func TestLevelEntriesStagedAndPerContext(t *testing.T) {
	const pairSrc = `
		t(X, Y, Z) :- a(X, Y, X1), b(X1, Y1), c(Y1, W), t(X1, Y1, Z).
		t(X, Y, Z) :- e(X, Y, Z).
	`
	pairs := storage.NewDatabase()
	const nodes = 400
	n, m := func(k int) string { return fmt.Sprint("n", k%nodes) }, func(k int) string { return fmt.Sprint("m", k%nodes) }
	for i := 0; i < nodes; i++ {
		// Every (n_i, m_i) context reaches three more, but for the m_k that
		// c cuts off.
		for _, k := range []int{2*i + 1, 2*i + 2, 3*i + 5} {
			pairs.AddFact("a", n(i), m(i), n(k))
			pairs.AddFact("b", n(k), m(k))
		}
		if i%7 != 0 {
			pairs.AddFact("c", m(i), "w")
		}
		if i%5 == 0 {
			pairs.AddFact("e", n(i), m(i), fmt.Sprint("z", i%7))
		}
	}
	// The hourglass with a guard on f's successor: c drops the nodes whose
	// name ends in 7.
	const guardSrc = `
		t(X, Y) :- a(X, Z), c(Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`
	guarded := hourglass(3, 60, 4, false)
	for _, tup := range guarded.Relation("a").Tuples() {
		if name := guarded.Syms.Name(tup[1]); !strings.HasSuffix(name, "7") {
			guarded.AddFact("c", name)
		}
	}
	chain := datagen.ChainTC(300)
	for _, tc := range []struct {
		name, src, query string
		db               *storage.Database
		fKey, gKey       int
		// fEntry is how f takes a context: "gather" (levelWorker.gather),
		// "solve" (its first atom's rows yielded, each continued) or
		// "step(0)" (the whole conjunction per context).
		fEntry string
		// staged: some level is at least two chunks wide, else every level
		// is one context.
		staged  bool
		anchors int
	}{
		{"staged", tcSrc, "t(s, Y)", hourglass(3, 60, 4, false), 0, 0, "gather", true, 0},
		{"lone", tcSrc, "t(" + chain.Start + ", Y)", chain.DB, 0, 0, "gather", false, 0},
		{"anchored", anchorsSrc, "t(s, Y, P)", hourglass(3, 60, 4, true), 0, 0, "gather", true, 1},
		{"second-atom", guardSrc, "t(s, Y)", guarded, 0, 0, "solve", true, 0},
		{"per-context", pairSrc, "t(n0, m0, Z)", pairs, -1, -1, "step(0)", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, q := mustDef(t, tc.src, "t"), parser.MustParseAtom(tc.query)
			plan, err := CompileSelection(d, q)
			if err != nil || plan.Mode != ModeContext {
				t.Fatalf("plan %v, err %v; want a context-mode plan", plan, err)
			}
			ce := plan.newContextEval(tc.db, nil)
			widest := 0
			plan.TestIterHook = func(int) { widest = max(widest, ce.carry.n) }
			got, _, err := ce.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			w := ce.w
			if w.f.keyCol != tc.fKey || w.g.keyCol != tc.gKey {
				t.Fatalf("f staged by context column %d, g by %d; want %d and %d\nf: %s\ng: %s", w.f.keyCol, w.g.keyCol, tc.fKey, tc.gKey,
					planString(w.f.conj, tc.db.Syms), planString(w.g.conj, tc.db.Syms))
			}
			// What f took: a row callback is built the first time solve is
			// needed, and only then.
			entry := "step(0)"
			switch {
			case w.f.row != nil || w.f.first != nil:
				entry = "solve"
			case w.f.rowCols != nil:
				entry = "gather"
			}
			if entry != tc.fEntry || w.g.rowCols != nil {
				t.Fatalf("f took %s (row map %v, g's %v), want %s\nf: %s", entry, w.f.rowCols, w.g.rowCols, tc.fEntry, planString(w.f.conj, tc.db.Syms))
			}
			if g := w.g.row != nil || w.g.first != nil; g != (tc.gKey >= 0) {
				t.Fatalf("g's rows went to solve: %v, want %v", g, tc.gKey >= 0)
			}
			// A level of one context is one probe of f and one of g, issued
			// straight through: it stages nothing, and g's rows go to first.
			// A wider level's probes are staged, and g's rows go to row.
			staged, row, first := !reflect.ValueOf(w.stage).IsZero(), w.g.row != nil, w.g.first != nil
			if tc.gKey >= 0 && (staged != tc.staged || row != tc.staged || !tc.staged && !first) {
				t.Fatalf("probes staged: %v, g's row callback built: %v, first: %v; want staged levels %v", staged, row, first, tc.staged)
			}
			if w.nAnchors != tc.anchors {
				t.Fatalf("contexts carry %d anchors, want %d", w.nAnchors, tc.anchors)
			}
			if staged := widest >= 2*probeChunk; staged != tc.staged || !staged && widest != 1 {
				t.Fatalf("test premise: widest level %d contexts", widest)
			}
			want := naiveSelect(t, d.Program(), q, tc.db)
			if got.Len() == 0 || !got.Equal(want) {
				t.Fatalf("answers %v, naive evaluation's %v", AnswerStrings(got, tc.db.Syms), AnswerStrings(want, tc.db.Syms))
			}
		})
	}
}

// naiveSelect is the query's answers by naive bottom-up evaluation.
func naiveSelect(t *testing.T, p *ast.Program, q ast.Atom, db *storage.Database) *storage.Relation {
	t.Helper()
	res, err := Naive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewRelation(q.Arity(), nil)
	for _, tup := range res.IDB.Relation(q.Pred).Tuples() {
		if matchesQuery(tup, q, db.Syms) {
			want.Insert(tup)
		}
	}
	return want
}
