// Package onesided is a from-scratch reproduction of Jeffrey F. Naughton's
// "One-Sided Recursions" (PODS 1987; JCSS 42:199–236, 1991): detection of
// one-sided Datalog recursions from the full A/V graph (Theorem 3.1),
// recursive-redundancy analysis (Theorem 3.3), the optimize-then-detect
// decision procedure (Theorem 3.4), and the Fig. 9 evaluation schema for
// "column = constant" selections, whose instantiations reproduce the
// Aho–Ullman (Fig. 7) and Henschen–Naqvi (Fig. 8) algorithms. Magic Sets
// and semi-naive evaluation are served as strategies beside it ("onesided",
// "multi", "magic", "seminaive", "edb" — see WithStrategies); the Counting
// method and naive bottom-up evaluation are library baselines for the
// paper's comparisons (eval.Plan.EvalCounting, eval.CountingTC,
// eval.Naive).
//
// # Quickstart
//
// The package's entry point is the Engine façade: Open an engine, load a
// program, and Query — the engine runs the paper's optimize-then-detect
// procedure per query, picks the one-sided Fig. 9 plan when Theorem 3.4
// says it applies, and falls back to Magic Sets (the paper's own general
// baseline) otherwise. A minimal session:
//
//	eng, _ := onesided.Open()
//	eng.Load(`
//	    t(X, Y) :- a(X, Z), t(Z, Y).
//	    t(X, Y) :- b(X, Y).
//	    a(paris, lyon). b(lyon, nice).
//	`)
//	rows, _ := eng.Query(ctx, "t(paris, Y)")
//	fmt.Println(rows.Explain())            // strategy=onesided mode=context carry-arity=1 ...
//	for row := range rows.All() {
//	    fmt.Println(row)                   // paris,nice
//	}
//
// # Planning, adornments, and binding
//
// Plans are compiled once per query shape — predicate plus adornment
// (the bound/free pattern, e.g. "bf" for t(paris, Y)) — because every
// analysis the planner runs depends only on which columns are bound.
// The compiled skeleton is cached with LRU eviction (WithPlanCache,
// CacheStats) and instantiated per query by substituting the constants
// into reserved slots: t(paris, Y) and t(lyon, Y) share one skeleton,
// and PreparedQuery.Bind rebinds it directly:
//
//	pq, _ := eng.Prepare(nil, query)   // full planning on a cache miss
//	lyon, _ := pq.Bind("lyon")         // same skeleton, new constants
//	rows, _ := lyon.Query(ctx)
//
// QueryBatch evaluates several queries together; same-shape selections
// share one traversal (the paper's Section 5 observation): context-mode
// plans explore the union of the queries' context graphs with owner
// tags so overlapping contexts are g-joined once, and Magic Sets plans
// union the queries' seed facts into a single semi-naive fixpoint.
//
// context.Context cancels the fixpoint loops mid-evaluation.
//
// # Concurrency and streaming
//
// A relation's writers take its lock and its lookups take none, so one
// Engine serves concurrent queries beside concurrent writers. A
// query evaluates on the goroutine that asked for it: the cores are used
// by concurrent requests, not by splitting one. QueryStream (or
// PreparedQuery.Stream) evaluates in the background and yields answers as
// they are derived — first answers arrive before the fixpoint completes:
//
//	rows, _ := eng.QueryStream(ctx, "t(paris, Y)")
//	for row := range rows.All() {          // yields during the fixpoint
//	    fmt.Println(row)
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Explain reports the carry batches walked alongside the strategy
// choice.
//
// A query writes nothing: it resolves its constants against the symbol
// table (facts intern theirs when written, rules when loaded), and one
// naming a constant the database has never seen has no answers and is
// answered so, without evaluating.
//
// # Durability
//
// WithPersistence(dir) backs the engine with a write-ahead segment log
// and checkpoint snapshots (see internal/wal): every accepted fact,
// fresh symbol, and loaded rule is journaled, Engine.Checkpoint
// compacts the log, Engine.Close flushes it, and a later Open over the
// same directory replays snapshot-then-tail — tolerating a torn final
// record after a crash — and rewarms the plan cache from the persisted
// query shapes (CacheStats.Rewarmed):
//
//	eng, _ := onesided.Open(onesided.WithPersistence("data/"))
//	defer eng.Close()
//	eng.Load(src)
//	eng.Checkpoint()                   // snapshot + log truncation
//
// WithSyncPolicy selects the fsync cadence (SyncBatch, SyncAlways,
// SyncOS).
//
// A write request is one commit: Engine.Apply takes a request's inserts
// and retractions (InsertFacts, RetractFacts, AddFact and Retract are
// its one-sided cases) and journals everything they changed as one
// group — under SyncAlways one fsync, after which Apply returns and
// subscribers are woken, once. What Apply returned without error is
// durable; a crash before that may keep a prefix of the request; and
// once the log has failed, writes report ErrDurability instead of
// success.
//
// The lower-level analysis surface (Classify, Decide, CompileSelection,
// A/V graphs, expansions, proofs) remains available for working with the
// paper's constructions directly.
package onesided
