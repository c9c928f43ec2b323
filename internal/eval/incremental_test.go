package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// signedDeltaOf applies (pred, consts...) fact specs to the database —
// retractions first, then inserts — and returns the signed Delta
// describing them, interned through the database's symbol table (the
// engine's contract: deltas describe changes that already happened).
func signedDeltaOf(db *storage.Database, add, del [][]string) Delta {
	side := func(facts [][]string, apply func(pred string, consts ...string) bool) map[string]*storage.Relation {
		var m map[string]*storage.Relation
		for _, f := range facts {
			pred, consts := f[0], f[1:]
			apply(pred, consts...)
			t := make(storage.Tuple, len(consts))
			for i, c := range consts {
				t[i] = db.Syms.Intern(c)
			}
			if m == nil {
				m = make(map[string]*storage.Relation)
			}
			if m[pred] == nil {
				m[pred] = storage.NewRelation(len(t), nil)
			}
			m[pred].Insert(t)
		}
		return m
	}
	d := Delta{Del: side(del, db.RemoveFact)}
	d.Add = side(add, db.AddFact)
	return d
}

// deltaOf is signedDeltaOf for inserts only.
func deltaOf(db *storage.Database, facts ...[]string) Delta { return signedDeltaOf(db, facts, nil) }

// retractOf is signedDeltaOf for retractions only.
func retractOf(db *storage.Database, facts ...[]string) Delta { return signedDeltaOf(db, nil, facts) }

// prepareIncremental plans query with the one-sided strategy and builds
// the retained state.
func prepareIncremental(t *testing.T, src, pred, query string, db *storage.Database) (*Incremental, *Plan) {
	t.Helper()
	d := mustDef(t, src, pred)
	q := parser.MustParseAtom(query)
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := plan.build(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inc, plan
}

// checkMaintained asserts the maintained answers equal a from-scratch
// recompute of the query over the current database, by the one-sided
// plan and by materialize-then-select.
func checkMaintained(t *testing.T, inc *Incremental, d *ast.Definition, query string, db *storage.Database) {
	t.Helper()
	q := parser.MustParseAtom(query)
	want, _, err := SelectEval(d.Program(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Answers().Equal(want) {
		t.Fatalf("maintained answers for %s: %v != scratch %v",
			query, AnswerStrings(inc.Answers(), db.Syms), AnswerStrings(want, db.Syms))
	}
	scratch, stats, err := OneSidedEval(d, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Answers().Equal(scratch) {
		t.Fatalf("maintained answers for %s: %v != OneSidedEval %v",
			query, AnswerStrings(inc.Answers(), db.Syms), AnswerStrings(scratch, db.Syms))
	}
	// The state-size statistic means the same thing however the state was
	// reached: contexts seen (context mode), reduced tuples (reduced mode).
	if got := inc.Stats().SeenSize; got != stats.SeenSize {
		t.Fatalf("maintained SeenSize for %s = %d, from-scratch evaluation reports %d", query, got, stats.SeenSize)
	}
}

// mustUpdate applies one delta to the maintained state and checks the
// answers against a from-scratch evaluation.
func mustUpdate(t *testing.T, inc *Incremental, d *ast.Definition, query string, db *storage.Database, delta Delta) {
	t.Helper()
	if err := inc.Update(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, query, db)
}

// TestIncrementalContextMode drives the Fig. 9 (context) incremental
// state through exit-edge, transition-edge, and seed-edge inserts, then
// retractions, a cut and the splice that undoes it.
func TestIncrementalContextMode(t *testing.T) {
	db := chainDB(5)
	inc, plan := prepareIncremental(t, tcSrc, "t", "t(n0, Y)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}
	d := mustDef(t, tcSrc, "t")
	step := func(delta Delta) {
		t.Helper()
		mustUpdate(t, inc, d, "t(n0, Y)", db, delta)
	}

	// New exit edge reachable mid-chain: answers grow through the g rule's
	// exit-delta variant over the adopted context relation.
	step(deltaOf(db, []string{"b", "n3", "extra"}))
	// New a-edge branching off a seen context: the f rule's delta variant
	// discovers the new context, ordinary rounds expand it.
	step(deltaOf(db, []string{"a", "n2", "side"}, []string{"b", "side", "sideout"}))
	// New seed edge from the selection constant itself.
	step(deltaOf(db, []string{"a", "n0", "jump"}, []string{"b", "jump", "jumpout"}))
	// Irrelevant relation: no-op.
	step(deltaOf(db, []string{"unrelated", "x", "y"}))
	// Inserts are not delete-rederive's business.
	dred := func() [2]int { return [2]int{inc.Stats().Overdeleted, inc.Stats().Rederived} }
	if got := dred(); got != [2]int{} {
		t.Fatalf("overdeleted/rederived after insert-only updates = %v, want none", got)
	}

	// Retract an exit: one answer leaves — over-deleted, and nothing
	// re-derives it.
	step(retractOf(db, []string{"b", "n3", "extra"}))
	if got := inc.Answers().Len(); got != 3 {
		t.Fatalf("answers after exit retract = %d, want 3 (%v)", got, AnswerStrings(inc.Answers(), db.Syms))
	}
	if got := dred(); got != [2]int{1, 0} {
		t.Fatalf("overdeleted/rederived after retracting an answer's only exit = %v, want [1 0]", got)
	}
	// An answer with two supports loses one: over-deleted, then re-derived
	// from the other, and the answers do not move.
	step(deltaOf(db, []string{"b", "n2", "twice"}, []string{"b", "n3", "twice"}))
	before := dred()
	step(retractOf(db, []string{"b", "n3", "twice"}))
	if got := inc.Answers().Len(); got != 4 {
		t.Fatalf("answers after losing one of two supports = %d, want 4 (%v)", got, AnswerStrings(inc.Answers(), db.Syms))
	}
	if got := dred(); got[0] != before[0]+1 || got[1] != before[1]+1 {
		t.Fatalf("overdeleted/rederived after losing one of two supports = %v, want %v each raised by one", got, before)
	}
	step(retractOf(db, []string{"b", "n2", "twice"}))
	if got := dred(); got[0] != before[0]+2 || got[1] != before[1]+1 {
		t.Fatalf("overdeleted/rederived after losing the second support = %v (before both: %v)", got, before)
	}
	before = dred()
	step(deltaOf(db, []string{"b", "n1", "late"}))
	step(retractOf(db, []string{"unrelated", "x", "y"}))
	if got := dred(); got != before {
		t.Fatalf("overdeleted/rederived moved from %v to %v on an insert and an unread retraction", before, got)
	}
	step(retractOf(db, []string{"b", "n1", "late"}))
	// Cut the chain: every context below the cut and its answers leave.
	step(retractOf(db, []string{"a", "n1", "n2"}))
	if got := AnswerStrings(inc.Answers(), db.Syms); len(got) != 1 || got[0] != "n0,jumpout" {
		t.Fatalf("answers after cut = %v, want [n0,jumpout]", got)
	}
	// Splice it back: they all return.
	step(deltaOf(db, []string{"a", "n1", "n2"}))
	if got := inc.Answers().Len(); got != 3 {
		t.Fatalf("answers after splice = %d, want 3 (%v)", got, AnswerStrings(inc.Answers(), db.Syms))
	}
	// A cut and a bypass in one signed delta.
	step(signedDeltaOf(db, [][]string{{"a", "n1", "n3"}}, [][]string{{"a", "n1", "n2"}, {"b", "side", "sideout"}}))
}

// TestIncrementalContextCycle: inserts that close a cycle must not loop
// the maintenance pass, and a retraction on the cycle must not leave the
// contexts that only supported each other (DRed over-deletes the whole
// cycle, then rederives what the seed still reaches).
func TestIncrementalContextCycle(t *testing.T) {
	db := chainDB(4)
	inc, _ := prepareIncremental(t, tcSrc, "t", "t(n0, Y)", db)
	d := mustDef(t, tcSrc, "t")
	step := func(delta Delta) {
		t.Helper()
		mustUpdate(t, inc, d, "t(n0, Y)", db, delta)
	}
	step(deltaOf(db, []string{"a", "n4", "n0"}))
	// Break the cycle mid-way: n3, n4 (and n0 as a context) are no longer
	// reached, although n4 -> n0 -> n1 still stands.
	step(retractOf(db, []string{"a", "n2", "n3"}))
	if inc.Answers().Len() != 0 {
		t.Fatalf("answers after breaking the cycle = %v, want none", AnswerStrings(inc.Answers(), db.Syms))
	}
	// A second way round, then retract an edge both ways used.
	step(deltaOf(db, []string{"a", "n2", "n3"}, []string{"a", "n1", "n3"}))
	step(retractOf(db, []string{"a", "n3", "n4"}))
	step(deltaOf(db, []string{"a", "n3", "n4"}))
	if got := AnswerStrings(inc.Answers(), db.Syms); len(got) != 1 || got[0] != "n0,end" {
		t.Fatalf("answers after restoring the cycle = %v, want [n0,end]", got)
	}
}

// TestIncrementalReducedMode: the fb adornment (persistent bound column)
// maintains through the retained semi-naive fixpoint with re-expansion.
func TestIncrementalReducedMode(t *testing.T) {
	ctx := context.Background()
	db := chainDB(5)
	inc, plan := prepareIncremental(t, tcSrc, "t", "t(X, end)", db)
	if plan.Mode != ModeReduced {
		t.Fatalf("mode = %v, want reduced", plan.Mode)
	}
	d := mustDef(t, tcSrc, "t")
	if err := inc.Update(ctx, deltaOf(db, []string{"b", "fresh", "end"}, []string{"a", "pre", "fresh"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(X, end)", db)
	// An edge into the existing chain.
	if err := inc.Update(ctx, deltaOf(db, []string{"a", "newroot", "n2"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(X, end)", db)
}

// TestIncrementalGuardFlip: an anchor-free factor group is an
// existential guard on every depth >= 1 derivation. The maintained state
// follows it in both directions — empty at build time, flipped
// non-empty, emptied again, refilled — with the contexts and answers a
// from-scratch evaluation finds each time.
func TestIncrementalGuardFlip(t *testing.T) {
	const src = `
		t(X, Y) :- a(X, Z), t(Z, Y), d(W).
		t(X, Y) :- b(X, Y).
	`
	db := chainDB(3)
	// d is empty: depth-0 answers only.
	inc, plan := prepareIncremental(t, src, "t", "t(n0, Y)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}
	def := mustDef(t, src, "t")
	step := func(delta Delta) {
		t.Helper()
		mustUpdate(t, inc, def, "t(n0, Y)", db, delta)
	}

	// Exit-only delta while the guard stays empty.
	step(deltaOf(db, []string{"b", "n0", "direct"}))
	if got := inc.Answers().Len(); got != 1 {
		t.Fatalf("guard-off answers = %d, want 1", got)
	}
	// Guard flips non-empty: the depth >= 1 answers appear.
	step(deltaOf(db, []string{"d", "on"}))
	if got := inc.Answers().Len(); got != 2 {
		t.Fatalf("guard-on answers = %d, want 2 (%v)", got, AnswerStrings(inc.Answers(), db.Syms))
	}
	// More guard tuples are no-ops; the chain keeps maintaining.
	step(deltaOf(db, []string{"d", "again"}, []string{"a", "n3", "n9"}, []string{"b", "n9", "tail"}))
	// One of two guard tuples leaves: still on.
	step(retractOf(db, []string{"d", "on"}))
	if got := inc.Answers().Len(); got != 3 {
		t.Fatalf("answers with one guard tuple left = %d, want 3", got)
	}
	// The last one leaves: back to depth 0.
	step(retractOf(db, []string{"d", "again"}))
	if got := inc.Answers().Len(); got != 1 {
		t.Fatalf("guard-off-again answers = %d, want 1 (%v)", got, AnswerStrings(inc.Answers(), db.Syms))
	}
	// And back on, in the same delta as a cut.
	step(signedDeltaOf(db, [][]string{{"d", "third"}}, [][]string{{"a", "n3", "n9"}}))
}

// TestIncrementalAnchoredGroup: Example 3.4's d(Z) group binds an answer
// column, so the g rule joins it; inserts and retractions of group
// tuples, of the transition relation and of the exit relation all
// maintain.
func TestIncrementalAnchoredGroup(t *testing.T) {
	const src = `
		t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		t(X, Y, Z) :- t0(X, Y, Z).
	`
	db := storage.NewDatabase()
	db.AddFact("e", "u1", "u0")
	db.AddFact("e", "u2", "u1")
	db.AddFact("d", "z1")
	db.AddFact("t0", "x", "u2", "w")
	db.AddFact("t0", "x", "u0", "w0")
	const query = "t(X, u0, Z)"
	inc, plan := prepareIncremental(t, src, "t", query, db)
	if plan.Mode != ModeContext || len(plan.factored) != 1 || len(plan.factored[0].anchors) != 1 {
		t.Fatalf("mode = %v factored = %+v, want a context plan with one anchored group", plan.Mode, plan.factored)
	}
	def := mustDef(t, src, "t")
	step := func(delta Delta) {
		t.Helper()
		mustUpdate(t, inc, def, query, db, delta)
	}
	step(deltaOf(db, []string{"d", "z2"}))
	step(deltaOf(db, []string{"t0", "y", "u1", "w"}, []string{"e", "u3", "u2"}, []string{"t0", "x", "u3", "w"}))
	step(retractOf(db, []string{"d", "z1"}))
	step(retractOf(db, []string{"e", "u2", "u1"}))
	step(deltaOf(db, []string{"e", "u2", "u1"}))
	// Empty the group: depth 0 only. Refill it.
	step(retractOf(db, []string{"d", "z2"}))
	if got := AnswerStrings(inc.Answers(), db.Syms); len(got) != 1 || got[0] != "x,u0,w0" {
		t.Fatalf("answers with the group empty = %v, want [x,u0,w0]", got)
	}
	step(deltaOf(db, []string{"d", "z3"}))
	if got := inc.Answers().Len(); got != 3 {
		t.Fatalf("answers after refill = %d, want 3 (%v)", got, AnswerStrings(inc.Answers(), db.Syms))
	}
}

// anchorsSrc is transitive closure carrying a label from the first
// step: P is bound by an atom connected to the context, so it is folded
// into the carry (arity 2) and passed through every deeper level.
const anchorsSrc = `
	t(X, Y, P) :- a(X, Z, P), t(Z, Y, Q).
	t(X, Y, P) :- b(X, Y, P).
`

// TestIncrementalFoldedAnchors maintains a plan whose contexts carry a
// folded anchor.
func TestIncrementalFoldedAnchors(t *testing.T) {
	db := storage.NewDatabase()
	db.AddFact("a", "n0", "n1", "red")
	db.AddFact("a", "n0", "n2", "blue")
	db.AddFact("a", "n1", "n3", "green")
	db.AddFact("a", "n2", "n3", "green")
	db.AddFact("b", "n3", "end", "x")
	db.AddFact("b", "n0", "near", "y")
	const query = "t(n0, Y, P)"
	inc, plan := prepareIncremental(t, anchorsSrc, "t", query, db)
	if plan.Mode != ModeContext || len(plan.foldedAnchors) != 1 || plan.CarryArity != 2 {
		t.Fatalf("mode = %v anchors = %v carry = %d, want context with one folded anchor", plan.Mode, plan.foldedAnchors, plan.CarryArity)
	}
	def := mustDef(t, anchorsSrc, "t")
	step := func(delta Delta) {
		t.Helper()
		mustUpdate(t, inc, def, query, db, delta)
	}
	step(deltaOf(db, []string{"b", "n1", "mid", "z"}))
	step(retractOf(db, []string{"a", "n1", "n3", "green"}))
	step(deltaOf(db, []string{"a", "n0", "n3", "black"}))
	step(retractOf(db, []string{"a", "n0", "n2", "blue"}, []string{"b", "n3", "end", "x"}))
	step(deltaOf(db, []string{"a", "n3", "n0", "loop"}, []string{"b", "n3", "end", "x"}))
	step(retractOf(db, []string{"a", "n0", "n1", "red"}))
}

// TestContextProgramIsFig9 is the adoption precondition, machine-checked:
// for every context-mode plan over the paper's recursions and random
// data, the from-scratch semi-naive fixpoint of the plan's context
// program equals what the Fig. 9 loop reaches — the context relation is
// the seen-set and the answer relation the answers, tuple for tuple.
func TestContextProgramIsFig9(t *testing.T) {
	defs := []struct{ src, pred string }{
		{tcSrc, "t"},
		{`t(X, Y) :- t(Z, Y), a(X, Z).
		  t(X, Y) :- b(X, Y).`, "t"}, // recursive atom first
		{`t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
		  t(X, Y) :- b(X, Y).`, "t"}, // permissions
		{`t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		  t(X, Y, Z) :- t0(X, Y, Z).`, "t"}, // Example 3.4: anchored factor group
		{`t(X, Y) :- a(X, Z), t(Z, Y), d(W).
		  t(X, Y) :- b(X, Y).`, "t"}, // anchor-free guard
		{anchorsSrc, "t"}, // folded anchors
		{`t(X, Y, P) :- a(X, Z), t(Z, Y, Q), perm(X, P).
		  t(X, Y, P) :- b(X, Y), perm(X, P).`, "t"}, // permissions column
		{`t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		  t(X, Y) :- b(X, Y).`, "t"}, // canonical two-sided
		{`buys(X, Y) :- knows(X, W), buys(W, Y).
		  buys(X, Y) :- likes(X, Y), cheap(Y).`, "buys"}, // optimized buys
	}
	checked := 0
	for _, dd := range defs {
		d := mustDef(t, dd.src, dd.pred)
		arity := d.Arity()
		// Every non-empty, non-full set of bound columns.
		for mask := 1; mask < 1<<arity-1; mask++ {
			args := make([]ast.Term, arity)
			for i := range args {
				if mask&(1<<i) != 0 {
					args[i] = ast.C("d1")
				} else {
					args[i] = ast.V("Q" + strconv.Itoa(i))
				}
			}
			q := ast.Atom{Pred: d.Pred(), Args: args}
			plan, err := CompileSelection(d, q)
			if err != nil || plan.Mode != ModeContext {
				continue
			}
			for seed := int64(0); seed < 4; seed++ {
				db := randomEDBFor(d.Program(), 6, 15, seed)
				if seed == 3 {
					// An empty relation: flips guards and exits off.
					for _, a := range d.NonrecursiveBody() {
						if r := db.Relation(a.Pred); r != nil && a.Pred != "a" {
							r.RetractBatch(r.Tuples())
						}
					}
				}
				ce := plan.newContextEval(db, nil)
				ans, _, err := ce.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				prog := plan.contextProgram()
				ctxPred, ansPred := plan.contextPreds()
				res, err := SemiNaive(prog, db)
				if err != nil {
					t.Fatalf("%v: context program\n%v: %v", q, prog, err)
				}
				seen := storage.NewRelation(ce.carryWidth, nil)
				seen.InsertBatch(ce.seen.Tuples())
				if got := res.IDB.Relation(ctxPred); !got.Equal(seen) {
					t.Fatalf("%s %v seed %d: context relation %v != seen-set %v\n%v", dd.src, q, seed,
						AnswerStrings(got, db.Syms), AnswerStrings(seen, db.Syms), prog)
				}
				if got := res.IDB.Relation(ansPred); !got.Equal(ans) {
					t.Fatalf("%s %v seed %d: answer relation %v != Fig. 9 answers %v\n%v", dd.src, q, seed,
						AnswerStrings(got, db.Syms), AnswerStrings(ans, db.Syms), prog)
				}
				checked++
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d context-mode (plan, database) pairs checked", checked)
	}
	t.Logf("%d context-mode (plan, database) pairs checked", checked)
}

// TestIncrementalMagic: the Magic Sets retained fixpoint extends under
// inserts that grow both the magic set and the answers.
func TestIncrementalMagic(t *testing.T) {
	const src = `
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`
	ctx := context.Background()
	db := storage.NewDatabase()
	db.AddFact("p", "a", "r")
	db.AddFact("p", "b", "r")
	db.AddFact("sg0", "r", "r")
	prog := mustProgram(t, src)
	q := parser.MustParseAtom("sg(a, Y)")
	mr, err := MagicTransform(prog, q)
	if err != nil {
		t.Fatal(err)
	}
	prep := &magicPrepared{mr: mr}
	inc, err := prep.Build(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		want, _, err := SelectEval(prog, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !inc.Answers().Equal(want) {
			t.Fatalf("magic maintained %v != scratch %v",
				AnswerStrings(inc.Answers(), db.Syms), AnswerStrings(want, db.Syms))
		}
	}
	check()
	if err := inc.Update(ctx, deltaOf(db, []string{"p", "c", "r"})); err != nil {
		t.Fatal(err)
	}
	check()
	if err := inc.Update(ctx, deltaOf(db, []string{"sg0", "s", "s"}, []string{"p", "a", "s"}, []string{"p", "d", "s"})); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestIncrementalEDB: base-relation lookups maintain by filtering the
// delta.
func TestIncrementalEDB(t *testing.T) {
	ctx := context.Background()
	db := storage.NewDatabase()
	db.AddFact("e", "a", "b")
	db.AddFact("e", "a", "c")
	db.AddFact("e", "x", "y")
	q := parser.MustParseAtom("e(a, Y)")
	prep := &edbPrepared{query: q}
	inc, err := prep.Build(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Answers().Len() != 2 {
		t.Fatalf("initial answers = %d, want 2", inc.Answers().Len())
	}
	if err := inc.Update(ctx, deltaOf(db, []string{"e", "a", "d"}, []string{"e", "z", "w"})); err != nil {
		t.Fatal(err)
	}
	if inc.Answers().Len() != 3 {
		t.Fatalf("maintained answers = %d, want 3", inc.Answers().Len())
	}
}

// TestIncrementalRandomized is the eval-layer equivalence property: on a
// random graph, interleave random edge inserts with maintained updates
// and compare against from-scratch recomputation every step.
func TestIncrementalRandomized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	db := storage.NewDatabase()
	node := func(i int) string { return fmt.Sprintf("v%d", i) }
	const n = 30
	for i := 0; i < 60; i++ {
		db.AddFact("a", node(rng.Intn(n)), node(rng.Intn(n)))
	}
	for i := 0; i < 10; i++ {
		db.AddFact("b", node(rng.Intn(n)), fmt.Sprintf("out%d", i))
	}
	inc, _ := prepareIncremental(t, tcSrc, "t", "t(v0, Y)", db)
	d := mustDef(t, tcSrc, "t")
	for step := 0; step < 40; step++ {
		var facts [][]string
		for j := 0; j <= rng.Intn(3); j++ {
			if rng.Intn(3) == 0 {
				facts = append(facts, []string{"b", node(rng.Intn(n)), fmt.Sprintf("nout%d_%d", step, j)})
			} else {
				facts = append(facts, []string{"a", node(rng.Intn(n)), node(rng.Intn(n))})
			}
		}
		// Duplicate inserts dedup inside deltaOf's AddFact; the delta may
		// carry tuples that were already present — idempotent by contract.
		if err := inc.Update(ctx, deltaOf(db, facts...)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkMaintained(t, inc, d, "t(v0, Y)", db)
	}
}

// TestSNStateUpdateDirect exercises the semi-naive maintenance core on a
// multi-rule program with an IDB-seeded predicate.
func TestSNStateUpdateDirect(t *testing.T) {
	const src = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		reach(X) :- path(root, X).
	`
	ctx := context.Background()
	db := storage.NewDatabase()
	db.AddFact("edge", "root", "m")
	db.AddFact("edge", "m", "k")
	prog := mustProgram(t, src)
	st, err := newSNState(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.initialFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	var newReach []string
	if err := st.update(ctx, deltaOf(db, []string{"edge", "k", "z"}), func(pred string, tu storage.Tuple) {
		if pred == "reach" {
			newReach = append(newReach, db.Syms.Name(tu[0]))
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	if len(newReach) != 1 || newReach[0] != "z" {
		t.Fatalf("new reach tuples = %v, want [z]", newReach)
	}
	// Full equivalence with a scratch run.
	scratch, err := SemiNaive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"path", "reach"} {
		if !st.idb.Relation(pred).Equal(scratch.IDB.Relation(pred)) {
			t.Fatalf("maintained %s differs from scratch", pred)
		}
	}
}

// TestIncrementalRoundWidths drives the retained fixpoint through wide
// and narrow rounds, with several jobs a round and scratch relations
// emptied and refilled between them: a closure over a fan (rounds
// hundreds of tuples wide) that narrows into a chain (one-tuple rounds),
// built cold, then cut and spliced at the fan, at the waist and in the
// tail. Every state must equal the from-scratch fixpoint. What the reuse
// could break is a job reading a delta relation already handed to the
// next round.
func TestIncrementalRoundWidths(t *testing.T) {
	const src = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`
	ctx := context.Background()
	db := storage.NewDatabase()
	for i := 0; i < 40; i++ {
		f, g := fmt.Sprintf("f%d", i), fmt.Sprintf("g%d", i)
		db.AddFact("edge", "root", f)
		db.AddFact("edge", f, g)
		db.AddFact("edge", g, "waist")
	}
	db.AddFact("edge", "waist", "c0")
	for i := 0; i < 30; i++ {
		db.AddFact("edge", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
	}
	prog := mustProgram(t, src)
	st, err := newSNState(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.initialFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		want, err := Naive(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.idb.Relation("path"); !got.Equal(want.IDB.Relation("path")) {
			t.Fatalf("%s: maintained path has %d tuples, from scratch %d", what, got.Len(), want.IDB.Relation("path").Len())
		}
		if st.free != nil {
			t.Fatalf("%s: the pass left its scratch behind", what)
		}
	}
	check("cold")
	for _, e := range [][]string{
		{"edge", "waist", "c0"}, // every path into the tail: wide rounds both ways
		{"edge", "c28", "c29"},  // near the end: a few narrow rounds
		{"edge", "root", "f7"},  // one spoke of the fan
		{"edge", "c3", "c4"},    // the tail from the waist's side: wide, then narrowing
	} {
		if err := st.update(ctx, retractOf(db, e), nil, nil); err != nil {
			t.Fatal(err)
		}
		check("cut " + e[1] + "->" + e[2])
		if err := st.update(ctx, deltaOf(db, e), nil, nil); err != nil {
			t.Fatal(err)
		}
		check("splice " + e[1] + "->" + e[2])
	}
	// Cutting one spoke over-deletes root's paths through the waist, which
	// the other 39 spokes re-derive: waist and c0..c30.
	if st.overdeleted == 0 || st.rederived != 32 {
		t.Fatalf("overdeleted %d, rederived %d; want some and 32", st.overdeleted, st.rederived)
	}
}

// TestUpdateReleasesBoundRelations: the conjunction scratch is retained
// with the compiled program and holds the relations its last traversal
// was bound to — live and, in a retraction pass, left. Once a maintenance
// pass is over none may remain, or every variant that read a delta keeps
// that delta relation — and the indexes the pass built on it — reachable
// from the result cache. The same goes for the pass's scratch free list:
// the deleted, candidate and round-delete relations it recycles are the
// pass's, and a state at rest holds none of them.
func TestUpdateReleasesBoundRelations(t *testing.T) {
	ctx := context.Background()
	db := chainDB(30)
	inc, _ := prepareIncremental(t, tcSrc, "t", "t(n0, Y)", db)
	if err := inc.Update(ctx, deltaOf(db, []string{"b", "n7", "mid"})); err != nil {
		t.Fatal(err)
	}
	if inc.st == nil {
		t.Fatal("no retained state after an update")
	}
	// A cut (a cascade of round-delete tables below it, every traversal
	// reading a's old state through the left slot), with an exit below the
	// cut retracted in the same pass, and the splice that undoes the cut.
	for _, delta := range []Delta{
		retractOf(db, []string{"a", "n20", "n21"}, []string{"b", "n30", "end"}),
		deltaOf(db, []string{"a", "n20", "n21"}),
	} {
		if err := inc.Update(ctx, delta); err != nil {
			t.Fatal(err)
		}
		if inc.st.free != nil {
			t.Errorf("the pass's scratch free list outlived it: %d arities", len(inc.st.free))
		}
	}
	if st := inc.Stats(); st.Overdeleted == 0 {
		t.Fatalf("the cut over-deleted nothing: %+v", st)
	}
	readLeft := 0
	check := func(what string, b *runBuf) {
		for i, r := range b.sc.rels {
			if r != nil {
				t.Errorf("%s still holds atom %d's relation after the pass", what, i)
			}
		}
		if b.sc.left != nil {
			readLeft++
		}
		for i, r := range b.sc.left {
			if r != nil {
				t.Errorf("%s still holds what left atom %d's relation after the pass", what, i)
			}
		}
	}
	ran := 0
	for _, cr := range inc.st.cp.rules {
		for _, v := range cr.variants {
			check(cr.src.String(), v.run)
			ran++
		}
		for _, v := range cr.edbVariants {
			check(cr.src.String()+" (edb variant)", v.run)
			ran++
		}
		if cr.check != nil {
			check(cr.src.String()+" (head check)", cr.check.run)
			ran++
		}
	}
	if ran < 4 {
		t.Fatalf("only %d compiled variants inspected", ran)
	}
	if readLeft == 0 {
		t.Fatal("no variant ever read an old state: the retraction pass did not go through bindLeft")
	}
}
