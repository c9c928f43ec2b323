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

// Write is one write request: facts to insert and facts to retract. The
// inserts are applied before the retractions, so a fact named on both
// sides ends up absent.
type Write struct {
	Insert  []Fact
	Retract []Fact
}

// Applied reports what a Write changed: inserts that were genuinely new
// and retractions of facts that were present.
type Applied struct {
	Added   int
	Removed int
}

// ErrDurability is returned by the write entry points once the
// write-ahead log has failed (an fsync or write error, a log closed
// underneath the engine); it wraps the log's sticky error. The facts the
// call reports were applied in memory but may not survive a restart, so
// the write must not be acknowledged as durable. Serving layers map it
// to a 503.
var ErrDurability = errors.New("onesided: write-ahead log failed")

// Apply is the write path: one write request is one commit. The facts of
// both sides are resolved and grouped into one storage run per predicate
// and sign, the runs are applied in order — inserts first, each run
// sharing one shard-lock pass and one epoch stamp per shard, the
// retraction runs under one hold of the retraction gate — and then the
// whole request is published once: one journal call (a single group
// commit, one fsync, under SyncAlways) and, after it, one watcher
// notification, so subscribers observe the request as a single delta
// round. The database epoch advances by one per accepted mutation.
// InsertFacts, RetractFacts and everything built on them are its
// one-sided cases.
//
// Inserts follow the valid-prefix rule. Under a MaxFacts quota they are
// admitted in capacity-sized chunks (each chunk its own commit: a
// duplicate consumes no capacity, so the room is re-read in between), and
// when the database fills Apply returns what it did alongside
// ErrFactLimitExceeded; a fact of the wrong arity ends the inserts the
// same way with ErrArityMismatch. Either way the prefix that fit is in
// (and journaled), exactly as if the facts had been inserted one at a
// time until the error, and the retractions are not attempted. The quota
// is admission control, not an invariant — concurrent writers may
// overshoot it by at most their own in-flight tuples. Retractions create
// nothing: a fact naming an unknown predicate, an unknown constant or the
// wrong arity cannot be stored and is skipped as missing.
//
// A request is one durable unit but not an atomic one: concurrent
// readers may see its earlier runs before its later ones, and a crash
// before Apply returns may keep any prefix of its mutations (in the
// order above). What Apply has returned without error is durable under
// SyncAlways; once the log has failed it returns ErrDurability. On a
// read-only follower Apply changes nothing and returns ErrReadOnly.
func (e *Engine) Apply(w Write) (Applied, error) {
	if e.readOnly.Load() {
		return Applied{}, ErrReadOnly
	}
	var done Applied
	var err error
	for rest := w.Insert; ; {
		chunk := rest
		if m := e.quota.MaxFacts; m > 0 && len(rest) > 0 {
			have := int64(e.db.TupleCount())
			if have >= m {
				err = fmt.Errorf("%w: database holds %d tuples (limit %d)", ErrFactLimitExceeded, have, m)
				break
			}
			if int64(len(chunk)) > m-have {
				chunk = rest[:m-have]
			}
		}
		rest = rest[len(chunk):]
		// The retractions ride with the chunk that completes the inserts.
		var retract []Fact
		if len(rest) == 0 {
			retract = w.Retract
		}
		var a Applied
		a, err = e.commitWrite(chunk, retract)
		done.Added += a.Added
		done.Removed += a.Removed
		if err != nil || len(rest) == 0 {
			break
		}
	}
	e.maybeAutoCheckpoint()
	return done, e.durable(err)
}

// durable is how a write entry point returns: err, unless the
// write-ahead log has failed, which outranks it.
func (e *Engine) durable(err error) error {
	if lg := e.log.Load(); lg != nil {
		if lerr := lg.Err(); lerr != nil {
			return fmt.Errorf("%w: %w", ErrDurability, lerr)
		}
	}
	return err
}

// InsertFacts inserts a batch of facts — Apply of a write with no
// retractions; AddFact, InsertFact and the ground facts of Load are
// batches of one or more facts through it — and returns the number that
// were genuinely new (duplicates insert as no-ops), under Apply's
// valid-prefix rule: ErrFactLimitExceeded or ErrArityMismatch come with
// the count actually inserted.
func (e *Engine) InsertFacts(facts []Fact) (int, error) {
	a, err := e.Apply(Write{Insert: facts})
	return a.Added, err
}

// RetractFacts retracts a batch of facts — Apply of a write with no
// inserts; Retract is a batch of one through it — and returns the number
// that were present and removed.
func (e *Engine) RetractFacts(facts []Fact) (int, error) {
	a, err := e.Apply(Write{Retract: facts})
	return a.Removed, err
}

// commitWrite is one commit: it checks each fact against its relation's
// arity, resolves the constants to Values and groups the tuples into one
// run per predicate and sign — the insert runs, then the retraction
// runs, each side in first-seen predicate order (which preserves input
// order within each predicate, the only order storage distinguishes) —
// and hands the runs to storage together. Inserting interns constants
// and declares relations on first use, and an insert of the wrong arity
// ends the resolution: the inserts before it are committed, the
// retractions are not attempted, the error reports it. Retracting
// creates nothing: a fact that cannot be stored is skipped.
func (e *Engine) commitWrite(insert, retract []Fact) (Applied, error) {
	db := e.db
	total := 0
	for _, f := range insert {
		total += len(f.Args)
	}
	for _, f := range retract {
		total += len(f.Args)
	}
	// One backing array under every tuple of the request. The run list
	// starts on the stack, and so does a lone fact's tuple slot: the first
	// run's tuples are held in first, outside runs (whose growth would
	// move them to the heap), so a write of one fact allocates only its
	// tuple.
	backing := make([]storage.Value, total)
	var runBuf [8]storage.Run
	var oneBuf [1]storage.Tuple
	runs, first := runBuf[:0], oneBuf[:0]
	var err error
sides:
	for _, del := range [2]bool{false, true} {
		facts := insert
		if del {
			facts = retract
		}
		base := len(runs)         // this side's runs are runs[base:]
		var byPred map[string]int // index into runs; built when the side's second predicate appears
		for i, f := range facts {
			gi, ok := len(runs)-1, len(runs) > base && runs[len(runs)-1].Rel.Name() == f.Pred
			if !ok {
				gi, ok = byPred[f.Pred]
			}
			if !ok {
				run := storage.Run{Del: del}
				if del {
					run.Rel = db.Relation(f.Pred)
				} else {
					run.Rel, _ = db.Declare(f.Pred, len(f.Args)) // a conflict fails the arity check below
				}
				if run.Rel == nil {
					continue
				}
				if gi = len(runs); gi > base {
					if byPred == nil {
						byPred = map[string]int{runs[base].Rel.Name(): base}
					}
					byPred[f.Pred] = gi
				} else if room := len(facts) - i; room > 1 {
					// The bulk shape is one predicate a side: room for the rest of it.
					if tuples := make([]storage.Tuple, 0, room); gi == 0 {
						first = tuples
					} else {
						run.Tuples = tuples
					}
				}
				runs = append(runs, run)
			}
			rel := runs[gi].Rel
			if rel.Arity() != len(f.Args) {
				if del {
					continue
				}
				err = fmt.Errorf("%w: fact %d gives %s %d arguments, the relation has arity %d",
					ErrArityMismatch, i, f.Pred, len(f.Args), rel.Arity())
				break sides
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
				runs[gi].Tuples = append(runs[gi].Tuples, t)
			}
		}
	}
	if len(runs) == 0 {
		return Applied{}, err
	}
	head := runs[0]
	head.Tuples = first
	added, removed := db.Commit(head, runs[1:]...)
	return Applied{Added: added, Removed: removed}, err
}
