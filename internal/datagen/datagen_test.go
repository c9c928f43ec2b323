package datagen

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

func TestChain(t *testing.T) {
	db := storage.NewDatabase()
	first, last := Chain(db, "a", "n", 5)
	if first != "n0" || last != "n5" {
		t.Fatalf("first=%s last=%s", first, last)
	}
	if db.Relation("a").Len() != 5 {
		t.Fatalf("len = %d", db.Relation("a").Len())
	}
}

func TestCycle(t *testing.T) {
	db := storage.NewDatabase()
	Cycle(db, "a", "n", 4)
	if db.Relation("a").Len() != 4 {
		t.Fatalf("len = %d", db.Relation("a").Len())
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := storage.NewDatabase()
	b := storage.NewDatabase()
	RandomGraph(a, "e", "n", 10, 30, 7)
	RandomGraph(b, "e", "n", 10, 30, 7)
	if a.Dump() != b.Dump() {
		t.Fatal("same seed must give same graph")
	}
	c := storage.NewDatabase()
	RandomGraph(c, "e", "n", 10, 30, 8)
	if a.Dump() == c.Dump() {
		t.Fatal("different seeds should differ")
	}
}

func TestChainTCAnswers(t *testing.T) {
	w := ChainTC(6)
	p := parser.MustParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	ans, _, err := eval.MagicEval(p, parser.MustParseAtom("t("+w.Start+", Y)"), w.DB)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("answers = %v", eval.AnswerStrings(ans, w.DB.Syms))
	}
}

func TestGenealogySameGeneration(t *testing.T) {
	db, leafA, leafB := Genealogy(2, 3)
	p := parser.MustParseProgram(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`)
	q := parser.MustParseAtom("sg(" + leafA + ", " + leafB + ")")
	ans, _, err := eval.MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("leaves of the same depth must be same-generation; got %v",
			eval.AnswerStrings(ans, db.Syms))
	}
	// Leaves from different families are not related.
	q2 := parser.MustParseAtom("sg(" + leafA + ", f1_7)")
	ans2, _, err := eval.MagicEval(p, q2, db)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Len() != 0 {
		t.Fatal("cross-family pairs must not be same-generation")
	}
}

func TestMarketShape(t *testing.T) {
	db := Market(3, 4, 6, 2)
	if db.Relation("knows").Len() != 12 {
		t.Fatalf("knows = %d", db.Relation("knows").Len())
	}
	if db.Relation("likes").Len() != 3 {
		t.Fatalf("likes = %d", db.Relation("likes").Len())
	}
	if db.Relation("cheap").Len() != 3 {
		t.Fatalf("cheap = %d", db.Relation("cheap").Len())
	}
}

func TestPermissionsShape(t *testing.T) {
	db := Permissions(5, 3, 0.5, 1)
	if db.Relation("a").Len() != 5 {
		t.Fatal("chain length wrong")
	}
	if db.Relation("b").Len() != 3 {
		t.Fatal("items wrong")
	}
	// Everyone can reach item0.
	p := db.Relation("p")
	v0, _ := db.Syms.Lookup("item0")
	count := 0
	for _, tup := range p.Tuples() {
		if tup[1] == v0 {
			count++
		}
	}
	if count != 6 {
		t.Fatalf("item0 permissions = %d, want 6", count)
	}
}

func TestLemma42Family(t *testing.T) {
	db := Lemma42(3)
	if db.Relation("a").Len() != 1 || db.Relation("b").Len() != 1 {
		t.Fatal("family shape wrong")
	}
	if db.Relation("c").Len() != 6 {
		t.Fatalf("c chain = %d, want 6", db.Relation("c").Len())
	}
	// The deep answer t(v1, v6) requires traversing the a self-loop; check
	// ground truth contains it.
	p := parser.MustParseProgram(`
		t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	ans, _, err := eval.SelectEval(p, parser.MustParseAtom("t(v1, v6)"), db)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatal("t(v1, v6) must hold on the Lemma 4.2 family")
	}
}

func TestExample34Workload(t *testing.T) {
	db := Example34(5, 3, 2, 1)
	if db.Relation("e").Len() != 5 || db.Relation("d").Len() != 3 || db.Relation("t0").Len() != 2 {
		t.Fatal("workload shape wrong")
	}
}

func TestTwoSidedRandom(t *testing.T) {
	db := TwoSidedRandom(10, 20, 3)
	for _, pred := range []string{"a", "b", "c"} {
		if db.Relation(pred) == nil || db.Relation(pred).Len() == 0 {
			t.Fatalf("missing %s", pred)
		}
	}
}
