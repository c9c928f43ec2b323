package onesided

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
)

// liveFact is one base fact the churn test knows to be present.
type liveFact struct {
	pred string
	args []string
}

func (f liveFact) key() string { return f.pred + "\x1f" + strings.Join(f.args, "\x1f") }

// liveSet tracks the base facts currently in the database, supporting
// random eviction for retraction churn.
type liveSet struct {
	byKey map[string]int // key -> index into facts
	facts []liveFact
}

func newLiveSet() *liveSet { return &liveSet{byKey: make(map[string]int)} }

func (s *liveSet) add(f liveFact) {
	if _, ok := s.byKey[f.key()]; ok {
		return
	}
	s.byKey[f.key()] = len(s.facts)
	s.facts = append(s.facts, f)
}

func (s *liveSet) remove(f liveFact) {
	i, ok := s.byKey[f.key()]
	if !ok {
		return
	}
	last := len(s.facts) - 1
	s.facts[i] = s.facts[last]
	s.byKey[s.facts[i].key()] = i
	s.facts = s.facts[:last]
	delete(s.byKey, f.key())
}

func (s *liveSet) random(rng *rand.Rand) (liveFact, bool) {
	if len(s.facts) == 0 {
		return liveFact{}, false
	}
	return s.facts[rng.Intn(len(s.facts))], true
}

// snapshotLive enumerates every base fact currently in db.
func snapshotLive(db *Database) *liveSet {
	s := newLiveSet()
	for _, pred := range db.Preds() {
		r := db.Relation(pred)
		for _, t := range r.Tuples() {
			args := make([]string, len(t))
			for i, v := range t {
				args[i] = db.Syms.Name(v)
			}
			s.add(liveFact{pred: pred, args: args})
		}
	}
	return s
}

// TestChurnEquivalenceAcrossExamples is the randomized signed-delta
// property test: for each example program (every served strategy plans
// at least one), interleave random base-fact inserts AND retractions
// with maintained queries, and assert after every step that (a) the
// engine's cached, delta-maintained answers are set-equal to naive
// bottom-up evaluation over the current database and no entry was
// evaluated in full twice, and (b) the churned database's Dump is byte-identical to a
// fresh database rebuilt from only the surviving facts — tombstones,
// dead-slot reuse, and posting-list filtering must be invisible to the
// logical state. Runs under -race in CI.
func TestChurnEquivalenceAcrossExamples(t *testing.T) {
	ctx := context.Background()
	specs := incInsertSpecs()
	for _, exm := range bindExamples() {
		exm := exm
		t.Run(exm.name, func(t *testing.T) {
			gens, ok := specs[exm.name]
			if !ok {
				t.Fatalf("no insert specs for example %s", exm.name)
			}
			eng := exm.open(t)
			prog := eng.Program()
			live := snapshotLive(eng.DB())
			rng := rand.New(rand.NewSource(int64(len(exm.name)) * 104729))

			// A twin engine replays the same churn through the request
			// write path: each run of inserts goes into one Apply together
			// with the run of retractions that follows it. At every flush
			// the two engines must agree on admission counts and epoch, and
			// dump byte-identically: a request may only amortize, never
			// change semantics.
			twin := exm.open(t)
			type op struct {
				retract bool
				f       Fact
			}
			var pending []op
			var wantAdded, wantRemoved int
			flush := func(step int) {
				t.Helper()
				gotAdded, gotRemoved := 0, 0
				for i := 0; i < len(pending); {
					var w Write
					for ; i < len(pending) && !pending[i].retract; i++ {
						w.Insert = append(w.Insert, pending[i].f)
					}
					for ; i < len(pending) && pending[i].retract; i++ {
						w.Retract = append(w.Retract, pending[i].f)
					}
					a, err := twin.Apply(w)
					if err != nil {
						t.Fatalf("step %d: Apply: %v", step, err)
					}
					gotAdded += a.Added
					gotRemoved += a.Removed
				}
				pending = pending[:0]
				if gotAdded != wantAdded || gotRemoved != wantRemoved {
					t.Fatalf("step %d: batched path added %d / removed %d, per-fact path added %d / removed %d",
						step, gotAdded, gotRemoved, wantAdded, wantRemoved)
				}
				wantAdded, wantRemoved = 0, 0
				if got, want := twin.DB().Epoch(), eng.DB().Epoch(); got != want {
					t.Fatalf("step %d: batched path at epoch %d, per-fact path at %d: the epoch counts accepted mutations either way",
						step, got, want)
				}
				if got, want := twin.DB().Dump(), eng.DB().Dump(); got != want {
					t.Fatalf("step %d: batched-path dump differs from per-fact dump\nbatched:\n%s\nper-fact:\n%s",
						step, got, want)
				}
			}

			built := make(builtOnce)
			for step := 0; step < 30; step++ {
				for j := 0; j <= rng.Intn(2); j++ {
					switch rng.Intn(3) {
					case 0, 1: // insert (new or duplicate)
						g := gens[rng.Intn(len(gens))]
						f := liveFact{pred: g.pred, args: g.args(rng, step)}
						if eng.AddFact(f.pred, f.args...) {
							live.add(f)
							wantAdded++
						}
						pending = append(pending, op{f: Fact{Pred: f.pred, Args: f.args}})
					default: // retract a random live fact
						f, ok := live.random(rng)
						if !ok {
							continue
						}
						removed, err := eng.Retract(f.pred, f.args...)
						if err != nil {
							t.Fatalf("step %d retract %v: %v", step, f, err)
						}
						if !removed {
							t.Fatalf("step %d: live fact %v not found by Retract", step, f)
						}
						live.remove(f)
						wantRemoved++
						pending = append(pending, op{retract: true, f: Fact{Pred: f.pred, Args: f.args}})
					}
				}
				// Retracting a fact that is gone (or never existed) is a no-op.
				if removed, _ := eng.Retract("no_such_pred_xyz", "a", "b"); removed {
					t.Fatalf("step %d: retract of a nonexistent fact reported removal", step)
				}

				c := exm.consts[rng.Intn(len(exm.consts))]
				ground := mustAtom(t, fmt.Sprintf(exm.shape, c))
				rows, err := eng.QueryAtom(ctx, ground)
				if err != nil {
					t.Fatalf("step %d %v: %v", step, ground, err)
				}
				oracle := naiveOracle(t, prog, ground, eng.DB())
				if !rows.Relation().Equal(oracle) {
					t.Fatalf("step %d %v: maintained %v != scratch %v",
						step, ground, rows.Strings(), eval.AnswerStrings(oracle, eng.DB().Syms))
				}
				built.check(t, step, ground, rows.Explain())
				// Flush on a stride so batches span several steps and mix
				// inserts with retracts.
				if step%3 == 2 {
					flush(step)
				}
			}
			flush(30)
			// Rebuild equivalence: a fresh database holding exactly the
			// surviving facts dumps byte-identically to the churned one.
			rebuilt := NewDatabase()
			for _, f := range live.facts {
				rebuilt.AddFact(f.pred, f.args...)
			}
			if got, want := eng.DB().Dump(), rebuilt.Dump(); got != want {
				t.Fatalf("churned dump differs from rebuilt dump\nchurned:\n%s\nrebuilt:\n%s", got, want)
			}
		})
	}
}
