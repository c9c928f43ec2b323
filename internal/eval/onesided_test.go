package eval

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

func mustDef(t *testing.T, src, pred string) *ast.Definition {
	t.Helper()
	d, err := parser.ParseDefinition(src, pred)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkAgainstFull compiles and evaluates the selection with the one-sided
// plan and compares against full-materialize-then-select.
func checkAgainstFull(t *testing.T, d *ast.Definition, query string, db *storage.Database) (*Plan, EvalStats) {
	t.Helper()
	q := parser.MustParseAtom(query)
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatalf("compile %s: %v", query, err)
	}
	got, stats, err := plan.Eval(db)
	if err != nil {
		t.Fatalf("eval %s: %v", query, err)
	}
	want, _, err := SelectEval(d.Program(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("query %s (mode %v): plan answers %v != full %v",
			query, plan.Mode, AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
	}
	return plan, stats
}

// TestExpE10Fig7Shape: selection on the persistent column of the canonical
// recursion compiles to the reduced (Aho–Ullman, Fig. 7) mode with unary
// state.
func TestExpE10Fig7Shape(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := chainDB(6)
	plan, stats := checkAgainstFull(t, d, "t(X, end)", db)
	if plan.Mode != ModeReduced {
		t.Fatalf("mode = %v, want reduced", plan.Mode)
	}
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d, want 1", plan.CarryArity)
	}
	if stats.SeenSize != 7 {
		t.Fatalf("seen size = %d, want 7 (one per chain node)", stats.SeenSize)
	}
}

// TestExpE11Fig8Shape: selection on the non-persistent column compiles to
// the context (Henschen–Naqvi, Fig. 8) mode with unary state.
func TestExpE11Fig8Shape(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := chainDB(6)
	plan, _ := checkAgainstFull(t, d, "t(n0, Y)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d, want 1", plan.CarryArity)
	}
}

// fig7Fig8TwoCycle is the 2-cycle x <-> y in a with one exit b(from, to):
// every t fact has proofs of unbounded length, so tuples would repeat
// without the seen-set dedup.
func fig7Fig8TwoCycle(exitFrom, exitTo string) *storage.Database {
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", exitFrom, exitTo)
	return db
}

// columnConstants lists the distinct constants in one column of a relation.
func columnConstants(db *storage.Database, pred string, col int) []string {
	var out []string
	seen := map[storage.Value]bool{}
	for _, tu := range db.Relation(pred).Tuples() {
		if !seen[tu[col]] {
			seen[tu[col]] = true
			out = append(out, db.Syms.Name(tu[col]))
		}
	}
	return out
}

// checkFig7 checks the paper's Fig. 7 in the compiled form the engine
// serves: on the canonical recursion every t(X, n0), n0 a target of b,
// compiles to the reduced mode (Aho–Ullman) and equals semi-naive ground
// truth.
func checkFig7(t *testing.T, db *storage.Database) {
	t.Helper()
	d := mustDef(t, tcSrc, "t")
	for _, n0 := range columnConstants(db, "b", 1) {
		if plan, _ := checkAgainstFull(t, d, "t(X, "+n0+")", db); plan.Mode != ModeReduced {
			t.Fatalf("t(X, %s): mode = %v, want reduced", n0, plan.Mode)
		}
	}
}

// checkFig8 checks Fig. 8 likewise: every t(n0, Y), n0 a source of a,
// compiles to the context mode (Henschen–Naqvi) and equals semi-naive
// ground truth.
func checkFig8(t *testing.T, db *storage.Database) {
	t.Helper()
	d := mustDef(t, tcSrc, "t")
	for _, n0 := range columnConstants(db, "a", 0) {
		if plan, _ := checkAgainstFull(t, d, "t("+n0+", Y)", db); plan.Mode != ModeContext {
			t.Fatalf("t(%s, Y): mode = %v, want context", n0, plan.Mode)
		}
	}
}

// TestExpE10Fig7Literal checks Fig. 7 (the reduced-mode plan) against
// semi-naive ground truth on a chain, a random graph and a 2-cycle.
func TestExpE10Fig7Literal(t *testing.T) {
	for name, db := range map[string]*storage.Database{
		"chain":  chainDB(8),
		"random": randomGraphDB(30, 70, 6, 11),
		"cycle":  fig7Fig8TwoCycle("x", "end"),
	} {
		t.Run(name, func(t *testing.T) { checkFig7(t, db) })
	}
}

// TestExpE11Fig8Literal checks Fig. 8 (the context-mode plan) likewise.
func TestExpE11Fig8Literal(t *testing.T) {
	for name, db := range map[string]*storage.Database{
		"chain":  chainDB(8),
		"random": randomGraphDB(25, 60, 5, 3),
		"cycle":  fig7Fig8TwoCycle("y", "out"),
	} {
		t.Run(name, func(t *testing.T) { checkFig8(t, db) })
	}
}

// TestFig8MatchesCompiledPlan: the Fig. 9 compiler instantiated on the
// canonical recursion computes Fig. 8's answers on a denser random graph,
// for both selections.
func TestFig8MatchesCompiledPlan(t *testing.T) {
	db := randomGraphDB(20, 50, 8, 9)
	checkFig7(t, db)
	checkFig8(t, db)
}

// TestExpE14Lemma41 checks Lemma 4.1 operationally: for the canonical
// one-sided recursion the seen-set dedup loses no answers — the unary-carry
// plans equal ground truth on every database in a randomized family,
// including ones with long cycles where tuples would otherwise repeat.
func TestExpE14Lemma41(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			db := randomGraphDB(15, 40, 6, seed)
			checkFig7(t, db)
			checkFig8(t, db)
		})
	}
}

// lemma42DB builds the database family from Lemma 4.2: a = {(v1,v1)},
// b = {(v1,v0)}, c = the chain v0 -> v1 -> ... -> v2k.
func lemma42DB(k int) *storage.Database {
	db := storage.NewDatabase()
	db.AddFact("a", "v1", "v1")
	db.AddFact("b", "v1", "v0")
	for i := 0; i < 2*k; i++ {
		db.AddFact("c", "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1))
	}
	return db
}

// TestExpE15Lemma42 reproduces Lemma 4.2: on the adversarial family the
// deep answer t(v1, v2k) needs v1 reused 2k times in a's first column, so
// a unary seen-set carry cannot find it; Magic Sets and the context-mode
// plan, which widens its carry, stay correct.
func TestExpE15Lemma42(t *testing.T) {
	src := `
		t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		t(X, Y) :- b(X, Y).
	`
	p := mustProgram(t, src)
	d := mustDef(t, src, "t")
	for _, k := range []int{1, 2, 4} {
		db := lemma42DB(k)
		q := parser.MustParseAtom("t(v1, Y)")
		want, _, err := SelectEval(p, q, db)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth contains v0..v2k reachable answers; in particular
		// t(v1, v2k) holds and its only proof reuses v1 in a's first
		// column 2k times.
		v2k, _ := db.Syms.Lookup("v" + strconv.Itoa(2*k))
		v1, _ := db.Syms.Lookup("v1")
		if !want.Contains(storage.Tuple{v1, v2k}) {
			t.Fatalf("k=%d: ground truth missing t(v1, v%d)", k, 2*k)
		}

		// Magic stays correct.
		magic, _, err := MagicEval(p, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !magic.Equal(want) {
			t.Fatalf("k=%d: magic incorrect", k)
		}

		// The context-mode plan stays correct by widening the carry.
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := plan.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("k=%d: context plan incorrect: %v != %v", k,
				AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
		}
		if plan.CarryArity <= 1 {
			t.Fatalf("k=%d: two-sided recursion compiled to unary state", k)
		}
	}
}

func TestOneSidedTCBothColumns(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := chainDB(6)
	plan, _ := checkAgainstFull(t, d, "t(n0, end)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v", plan.Mode)
	}
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d", plan.CarryArity)
	}
	// Negative: wrong constant.
	q := parser.MustParseAtom("t(n3, n1)")
	plan2, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan2.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("t(n3, n1) should be empty, got %v", AnswerStrings(got, db.Syms))
	}
}

func TestOneSidedTCCyclicData(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "z")
	db.AddFact("a", "z", "x")
	db.AddFact("b", "y", "out")
	// Termination on cyclic data comes from carry dedup (Property 1).
	checkAgainstFull(t, d, "t(x, Y)", db)
	checkAgainstFull(t, d, "t(X, out)", db)
}

// TestExpE17Permissions: the reconstructed Example 4.1. One-sided, but the
// compiled state is binary (no unary algorithm is apparent — the paper's
// open question).
func TestExpE17Permissions(t *testing.T) {
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	db := storage.NewDatabase()
	// Chain 1 -> 2 -> 3, b(3, v) and b(3, w); permissions allow v
	// everywhere but w only from node 2.
	db.AddFact("a", "1", "2")
	db.AddFact("a", "2", "3")
	db.AddFact("b", "3", "v")
	db.AddFact("b", "3", "w")
	db.AddFact("b", "1", "direct")
	for _, x := range []string{"1", "2", "3"} {
		db.AddFact("p", x, "v")
	}
	db.AddFact("p", "2", "w")

	plan, _ := checkAgainstFull(t, d, "t(1, Y)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v", plan.Mode)
	}
	if plan.CarryArity != 2 {
		t.Fatalf("carry arity = %d, want 2 (the paper's no-arity-reduction case)", plan.CarryArity)
	}
	// And the persistent-side selection reduces as usual.
	plan2, _ := checkAgainstFull(t, d, "t(X, v)", db)
	if plan2.Mode != ModeReduced || plan2.CarryArity != 1 {
		t.Fatalf("mode=%v arity=%d", plan2.Mode, plan2.CarryArity)
	}
}

// TestExpE13Example34Factored: Example 3.4's d(Z) is disconnected; the
// compiler factors it out of the carry (unary state) and performs the one
// documented unrestricted lookup.
func TestExpE13Example34Factored(t *testing.T) {
	d := mustDef(t, `
		t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		t(X, Y, Z) :- t0(X, Y, Z).
	`, "t")
	db := storage.NewDatabase()
	db.AddFact("e", "u1", "u0")
	db.AddFact("e", "u2", "u1")
	db.AddFact("d", "z1")
	db.AddFact("d", "z2")
	db.AddFact("t0", "x", "u2", "w")
	db.AddFact("t0", "x", "other", "w")

	plan, _ := checkAgainstFull(t, d, "t(X, u0, Z)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v", plan.Mode)
	}
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d, want 1 (d factored out)", plan.CarryArity)
	}
	if len(plan.factored) != 1 {
		t.Fatalf("factored groups = %d, want 1", len(plan.factored))
	}

	// With d empty, only depth-0 answers survive.
	db2 := storage.NewDatabase()
	db2.AddFact("e", "u1", "u0")
	db2.AddFact("t0", "x", "u0", "w")
	db2.AddFact("t0", "x", "u1", "w")
	checkAgainstFull(t, d, "t(X, u0, Z)", db2)
}

// TestOneSidedTwoSidedCanonical: the compiler still evaluates the canonical
// two-sided recursion correctly, but the state must be wider (the anchor is
// folded into the carry) — the paper's Lemma 4.2 point.
func TestOneSidedTwoSidedCanonical(t *testing.T) {
	d := mustDef(t, `
		t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	for seed := int64(0); seed < 6; seed++ {
		db := randomEDBFor(d.Program(), 7, 16, seed)
		plan, _ := checkAgainstFull(t, d, "t(d0, Y)", db)
		if plan.Mode != ModeContext {
			t.Fatalf("mode = %v", plan.Mode)
		}
		if plan.CarryArity != 3 {
			t.Fatalf("carry arity = %d, want 3 (anchor + both call columns)", plan.CarryArity)
		}
	}
}

// TestOneSidedShuffleUnsupported: Example 3.5 with a selection on X needs
// the free head variable Y inside the recursive call — the many-sided
// shuffle the compiler rejects.
func TestOneSidedShuffleUnsupported(t *testing.T) {
	d := mustDef(t, `
		t(X, Y) :- e(X, W), t(Y, W).
		t(X, Y) :- t0(X, Y).
	`, "t")
	_, err := CompileSelection(d, parser.MustParseAtom("t(c, Y)"))
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("expected ErrUnsupported, got %v", err)
	}
}

func TestOneSidedRepeatedQueryVarUnsupported(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	_, err := CompileSelection(d, parser.MustParseAtom("t(X, X)"))
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("expected ErrUnsupported, got %v", err)
	}
}

func TestOneSidedFreeQuery(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := chainDB(4)
	plan, _ := checkAgainstFull(t, d, "t(X, Y)", db)
	if plan.Mode != ModeFull {
		t.Fatalf("mode = %v", plan.Mode)
	}
}

// TestOneSidedSchemaProperties asserts the paper's Property 1 (simple
// termination without restrictions on the data) and Property 2 (state is
// only the seen relation) indirectly: evaluation terminates on adversarial
// cyclic data and the seen size is bounded by the context domain.
func TestOneSidedSchemaProperties(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := storage.NewDatabase()
	// Complete graph on 12 nodes: worst-case cyclic.
	names := make([]string, 12)
	for i := range names {
		names[i] = "k" + string(rune('a'+i))
	}
	for _, x := range names {
		for _, y := range names {
			db.AddFact("a", x, y)
		}
	}
	db.AddFact("b", names[3], "sink")
	plan, stats := checkAgainstFull(t, d, "t(ka, Y)", db)
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d", plan.CarryArity)
	}
	if stats.SeenSize > len(names) {
		t.Fatalf("seen grew to %d > domain %d: dedup broken", stats.SeenSize, len(names))
	}
}

// TestExpE12RandomDefinitions property-tests the Fig. 9 compiler against
// full evaluation across the paper's recursions, random data, and every
// single-column selection.
func TestExpE12RandomDefinitions(t *testing.T) {
	defs := []struct{ src, pred string }{
		{tcSrc, "t"},
		{`t(X, Y) :- t(Z, Y), a(X, Z).
		  t(X, Y) :- b(X, Y).`, "t"}, // recursive atom first
		{`t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
		  t(X, Y) :- b(X, Y).`, "t"}, // permissions
		{`t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		  t(X, Y, Z) :- t0(X, Y, Z).`, "t"}, // Example 3.4
		{`t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		  t(X, Y) :- b(X, Y).`, "t"}, // canonical two-sided
		{`buys(X, Y) :- knows(X, W), buys(W, Y).
		  buys(X, Y) :- likes(X, Y), cheap(Y).`, "buys"}, // optimized buys
		{`t(X, Y) :- a(Y, W), t(W, Y).
		  t(X, Y) :- b(X, Y).`, "t"}, // head var X only in exit... X free non-persistent
	}
	for _, dd := range defs {
		d, err := parser.ParseDefinition(dd.src, dd.pred)
		if err != nil {
			continue // the last definition is intentionally unusual; skip if invalid
		}
		arity := d.Arity()
		for seed := int64(0); seed < 4; seed++ {
			db := randomEDBFor(d.Program(), 6, 15, seed)
			for col := 0; col < arity; col++ {
				args := make([]ast.Term, arity)
				for i := range args {
					if i == col {
						args[i] = ast.C("d1")
					} else {
						args[i] = ast.V("Q" + string(rune('0'+i)))
					}
				}
				q := ast.Atom{Pred: d.Pred(), Args: args}
				plan, err := CompileSelection(d, q)
				if err != nil {
					var unsup *ErrUnsupported
					if errors.As(err, &unsup) {
						continue // documented fallback cases
					}
					t.Fatalf("%s %v: %v", dd.src, q, err)
				}
				got, _, err := plan.Eval(db)
				if err != nil {
					t.Fatalf("%s %v: %v", dd.src, q, err)
				}
				want, _, err := SelectEval(d.Program(), q, db)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s %v seed %d (mode %v): %v != %v", dd.src, q, seed, plan.Mode,
						AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
				}
			}
		}
	}
}

// TestOneSidedPropertyThree: on the canonical recursion, context-mode
// evaluation performs no full scans (Property 3), unlike the
// materialize-then-select baseline.
func TestOneSidedPropertyThree(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := chainDB(50)
	q := parser.MustParseAtom("t(n0, Y)")
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	db.Stats.Reset()
	if _, _, err := plan.Eval(db); err != nil {
		t.Fatal(err)
	}
	if db.Stats.FullScans != 0 {
		t.Fatalf("context mode performed %d full scans; Property 3 violated", db.Stats.FullScans)
	}
}
