package onesided

import (
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/storage"
)

// Fact is one ground fact for the write entry points: the predicate
// name plus its constant arguments. It is the wire-shaped twin of
// InsertFact's variadic signature, usable in slices.
type Fact struct {
	Pred string
	Args []string
}

// ErrArityMismatch is returned by the insert entry points for a fact
// whose argument count differs from its relation's arity — the stored
// relation's, or the one an earlier fact of the same batch gave a new
// predicate. Serving layers map it to a 400.
var ErrArityMismatch = errors.New("onesided: arity mismatch")

// SplitFacts separates a parsed program into its ground facts and the
// remaining rules, for callers that admit the facts themselves (the
// server charges them to a tenant) before loading the rules.
func SplitFacts(p *Program) (facts []Fact, rules *Program) {
	rules = eval.SplitFacts(p, func(pred string, consts []string) {
		facts = append(facts, Fact{Pred: pred, Args: consts})
	})
	return facts, rules
}

// InsertFacts is the insert path: AddFact, InsertFact and the ground
// facts of Load are batches of one or more facts through it. Facts are
// applied in input order, grouped into one storage run per predicate:
// a run shares one shard-lock pass, one epoch stamp per shard, one
// journal run (a single group commit under SyncAlways) and one watcher
// notification, so incremental subscribers observe it as a single
// delta round. The database epoch advances by one per accepted fact.
//
// The return counts facts that were genuinely new (duplicates insert
// as no-ops). Admission follows the valid-prefix rule: under a MaxFacts
// quota the batch is admitted in capacity-sized chunks, and when the
// database fills mid-batch InsertFacts returns the count actually
// inserted alongside ErrFactLimitExceeded; a fact of the wrong arity
// ends the batch the same way with ErrArityMismatch. Either way the
// prefix that fit is in (and journaled), exactly as if the facts had
// been inserted one at a time until the error. The quota is admission
// control, not an invariant — concurrent inserters may overshoot it by
// at most their own in-flight tuples. On a read-only follower
// InsertFacts inserts nothing and returns ErrReadOnly.
func (e *Engine) InsertFacts(facts []Fact) (int, error) {
	if e.readOnly.Load() {
		return 0, ErrReadOnly
	}
	added := 0
	for rest := facts; len(rest) > 0; {
		chunk := rest
		if m := e.quota.MaxFacts; m > 0 {
			have := int64(e.db.TupleCount())
			if have >= m {
				return added, fmt.Errorf("%w: database holds %d tuples (limit %d)", ErrFactLimitExceeded, have, m)
			}
			if int64(len(chunk)) > m-have {
				chunk = rest[:m-have]
			}
		}
		n, err := e.commitFacts(chunk, false)
		added += n
		if err != nil {
			return added, err
		}
		rest = rest[len(chunk):]
	}
	return added, nil
}

// RetractFacts is the retract path (Retract is a batch of one through
// it), grouped per predicate like InsertFacts, so maintained queries
// and subscriptions absorb each run as a single signed delta round.
// Facts naming an unknown predicate, an unknown constant, or the wrong
// arity cannot be stored and are skipped as missing. It returns the
// number of facts that were present and removed. A read-only follower
// rejects with ErrReadOnly.
func (e *Engine) RetractFacts(facts []Fact) (int, error) {
	if e.readOnly.Load() {
		return 0, ErrReadOnly
	}
	return e.commitFacts(facts, true)
}

// factRun is one predicate's share of a batch: the tuples bound for
// rel, in input order.
type factRun struct {
	pred   string
	rel    *storage.Relation
	tuples []storage.Tuple
}

// commitFacts is the body InsertFacts and RetractFacts share: it checks
// each fact against its relation's arity, resolves the constants to
// Values, groups the tuples into one run per predicate (runs in
// first-seen predicate order, which preserves input order within each
// predicate — the only order storage distinguishes), commits the runs
// to storage and returns the number of accepted mutations. Inserting
// (del false) interns constants and declares relations on first use,
// and stops at an arity mismatch — the facts before it are committed,
// the error reports it. Retracting creates nothing: a fact that cannot
// be stored is skipped.
func (e *Engine) commitFacts(facts []Fact, del bool) (n int, err error) {
	db := e.db
	total := 0
	for _, f := range facts {
		total += len(f.Args)
	}
	// One backing array under every tuple of the batch. The run list
	// lives on the stack, and so does a lone fact's tuple slot: the first
	// run's tuples are held in first, outside runs (whose growth would
	// move them to the heap), so a batch of one allocates only its tuple.
	backing := make([]storage.Value, total)
	var runBuf [4]factRun
	var oneBuf [1]storage.Tuple
	runs, first := runBuf[:0], oneBuf[:0]
	if len(facts) > 1 {
		// The bulk-load shape is one predicate: room for the whole batch.
		first = make([]storage.Tuple, 0, len(facts))
	}
	var byPred map[string]int // index into runs; built when a second predicate appears
	for i, f := range facts {
		gi, ok := len(runs)-1, len(runs) > 0 && runs[len(runs)-1].pred == f.Pred
		if !ok {
			gi, ok = byPred[f.Pred]
		}
		if !ok {
			run := factRun{pred: f.Pred}
			if del {
				run.rel = db.Relation(f.Pred)
			} else {
				run.rel, _ = db.Declare(f.Pred, len(f.Args)) // a conflict fails the arity check below
			}
			if run.rel == nil {
				continue
			}
			if gi = len(runs); gi > 0 {
				if byPred == nil {
					byPred = map[string]int{runs[0].pred: 0}
				}
				byPred[f.Pred] = gi
			}
			runs = append(runs, run)
		}
		rel := runs[gi].rel
		if rel.Arity() != len(f.Args) {
			if del {
				continue
			}
			err = fmt.Errorf("%w: fact %d gives %s %d arguments, the relation has arity %d",
				ErrArityMismatch, i, f.Pred, len(f.Args), rel.Arity())
			break
		}
		t := storage.Tuple(backing[:len(f.Args):len(f.Args)])
		backing = backing[len(f.Args):]
		if !del {
			db.Syms.InternBatch(f.Args, t)
		} else if !db.Syms.LookupBatch(f.Args, t) {
			continue
		}
		if gi == 0 {
			first = append(first, t)
		} else {
			runs[gi].tuples = append(runs[gi].tuples, t)
		}
	}
	for gi, g := range runs {
		tuples := g.tuples
		if gi == 0 {
			tuples = first
		}
		if del {
			n += g.rel.RetractBatch(tuples)
		} else {
			n += g.rel.InsertBatch(tuples)
		}
	}
	e.maybeAutoCheckpoint()
	return n, err
}
