package onesided

import (
	"iter"
	"sort"
	"strings"
	"sync"

	"repro/internal/eval"
	"repro/internal/storage"
)

// Row is one answer tuple with access to the symbol table for rendering.
type Row struct {
	tuple storage.Tuple
	syms  *storage.SymbolTable
}

// Len returns the tuple's arity.
func (r Row) Len() int { return len(r.tuple) }

// Value returns the constant name at column i.
func (r Row) Value(i int) string { return r.syms.Name(r.tuple[i]) }

// Strings returns all column values as constant names.
func (r Row) Strings() []string {
	out := make([]string, len(r.tuple))
	for i, v := range r.tuple {
		out[i] = r.syms.Name(v)
	}
	return out
}

// String renders the row as comma-separated constant names.
func (r Row) String() string { return strings.Join(r.Strings(), ",") }

// Tuple returns the underlying interned tuple. Callers must not modify
// it.
func (r Row) Tuple() Tuple { return r.tuple }

// Rows is a query result: the answer set plus the evaluation's
// statistics, instrumentation delta, and plan explanation.
//
// A Rows returned by Query is materialized: the evaluation has finished
// and every accessor is immediate. A Rows returned by Stream/QueryStream
// is live: All yields each answer as the background evaluation derives
// it (first answers typically arrive before the fixpoint completes), and
// every other accessor — Len, Strings, Sorted, Stats, Counters, Explain,
// Err — blocks until the evaluation finishes. The live stream is
// single-pass and single-consumer: the first All call owns it (breaking
// out stops the evaluation early), and later All calls, like every call
// after completion, iterate the materialized answer set.
//
// A Rows served by the engine's bound-result cache (Explain reports
// result-cache=hit|updated|rebuilt) views the cache's MAINTAINED answer
// relation: a later insert or retraction that updates the cached entry
// changes, tuple by tuple, the same relation this Rows iterates. An
// iteration that overlaps such an update sees each tuple as it was in
// either the old or the new answer set — never a torn tuple, but
// possibly a mix of the two sets, and an answer already yielded may
// since have been retracted. Copy (Strings, Sorted) right after the
// query when exact point-in-time contents matter.
//
// A hit (result-cache=hit) carries exact point-in-time contents already:
// Rendered returns the answers as bytes the cache entry rendered under its
// lock, the set as of the entry's stamp, which no later maintenance pass
// reaches. The relation accessors of the same Rows still walk the
// maintained relation as described above.
type Rows struct {
	rel      *storage.Relation
	syms     *storage.SymbolTable
	stats    eval.EvalStats
	counters storage.Counters
	explain  Explain
	// rendered is the cache entry's rendering as of the hit that made
	// this Rows (nil for every other Rows).
	rendered *rendering

	// Streaming state (nil/zero for materialized Rows). The evaluation
	// goroutine sends answers on ch, then fills rel/stats/err/counters/
	// explain and closes done. stop asks the evaluation to end early;
	// cancel releases the derived context.
	ch       chan Row
	done     chan struct{}
	err      error
	cancel   func()
	stop     func()
	mu       sync.Mutex
	claimed  bool
	waitOnce sync.Once
}

// claimStream marks the live stream as owned, returning false when the
// Rows is materialized or the stream was already claimed.
func (rs *Rows) claimStream() bool {
	if rs.ch == nil {
		return false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.claimed {
		return false
	}
	rs.claimed = true
	return true
}

// Wait blocks until the evaluation behind a streaming Rows finishes
// (discarding any answers nobody consumed — they remain available from
// the materialized set) and returns its terminal error. On a
// materialized Rows it returns nil immediately.
func (rs *Rows) Wait() error {
	if rs.done == nil {
		return nil
	}
	rs.waitOnce.Do(func() {
		if rs.claimStream() {
			for range rs.ch {
			}
		}
		<-rs.done
		if rs.cancel != nil {
			rs.cancel()
		}
	})
	return rs.err
}

// Err returns the terminal error of a streaming evaluation (nil until it
// finishes; Err blocks like Wait). Materialized Rows always return nil —
// their evaluation errors surfaced from Query directly.
func (rs *Rows) Err() error { return rs.Wait() }

// Len returns the number of answers, waiting for a streaming evaluation
// to finish.
func (rs *Rows) Len() int {
	rs.Wait()
	return rs.rel.Len()
}

// All streams the answers. On a live Rows the first call yields each
// answer as it is derived, in derivation order; breaking out of the
// range stops the evaluation early. On a materialized Rows (and on
// repeated calls) it iterates the answer set; sharded answer relations
// do not preserve global derivation order there — use Sorted for
// deterministic output.
func (rs *Rows) All() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		if rs.claimStream() {
			for row := range rs.ch {
				if !yield(row) {
					rs.stop()
					// Drain until the evaluation goroutine closes the
					// channel: its in-flight send must never be left
					// without a receiver. The emit path also selects on
					// the cancelled context, so this loop ends as soon as
					// the evaluator observes the stop — but draining makes
					// the no-blocked-sender guarantee unconditional rather
					// than a property every strategy's emit must uphold.
					for range rs.ch {
					}
					<-rs.done
					if rs.cancel != nil {
						rs.cancel()
					}
					return
				}
			}
			<-rs.done
			// Release the derived context now rather than waiting for a
			// later accessor: a long-lived parent ctx would otherwise
			// accumulate one never-cancelled child per completed stream.
			if rs.cancel != nil {
				rs.cancel()
			}
			return
		}
		rs.Wait()
		for _, t := range rs.rel.Tuples() {
			if !yield(Row{tuple: t, syms: rs.syms}) {
				return
			}
		}
	}
}

// Sorted streams the answers in lexicographic tuple order, for
// deterministic output, waiting for a streaming evaluation to finish.
func (rs *Rows) Sorted() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		rs.Wait()
		for _, t := range rs.rel.SortedTuples() {
			if !yield(Row{tuple: t, syms: rs.syms}) {
				return
			}
		}
	}
}

// Strings returns the answers as sorted comma-separated rows (the
// rendering the tests and CLI use), waiting for a streaming evaluation
// to finish.
func (rs *Rows) Strings() []string {
	rs.Wait()
	out := make([]string, 0, rs.rel.Len())
	for _, t := range rs.rel.Tuples() {
		out = append(out, Row{tuple: t, syms: rs.syms}.String())
	}
	sort.Strings(out)
	return out
}

// Stats returns the evaluation statistics (Fig. 9 iterations, seen-set
// size, carry arity, shards, batches), waiting for a
// streaming evaluation to finish.
func (rs *Rows) Stats() EvalStats {
	rs.Wait()
	return rs.stats
}

// Counters returns the database instrumentation delta attributable to
// this evaluation (tuples examined, index lookups, full scans, inserts),
// waiting for a streaming evaluation to finish. It is a window over the
// engine's totals, which every evaluation adds its probes to when it
// ends: exact when queries run one at a time, while a query that
// overlaps others sees the probes of those that ended inside its window.
func (rs *Rows) Counters() Counters {
	rs.Wait()
	return rs.counters
}

// Explain returns the plan report: chosen strategy, Theorem 3.4 verdict,
// Fig. 9 mode, shards and batches, and the strategies that declined. It waits for a streaming evaluation to
// finish.
func (rs *Rows) Explain() Explain {
	rs.Wait()
	return rs.explain
}

// Relation returns the raw answer relation, waiting for a streaming
// evaluation to finish.
func (rs *Rows) Relation() *Relation {
	rs.Wait()
	return rs.rel
}

// Rendered returns the answers and the explanation in the form a serving
// layer writes. A bound-result cache hit returns what its cache entry
// rendered once for the answer set and shares among its hits (cached is
// true, exactly when Explain reports result-cache=hit): the answers as of
// the hit, which no later maintenance pass reaches. Any other Rows is
// sorted, resolved and marshalled by the call, from the relation as it is
// now, after waiting for a streaming evaluation to finish.
func (rs *Rows) Rendered() (r Rendered, cached bool) {
	if rs.rendered != nil {
		return rs.rendered.Rendered, true
	}
	rs.Wait()
	r.Answers, r.Count = renderAnswers(rs.rel, rs.syms)
	r.Explain = rs.explain.String()
	return r, false
}
