// Package storage provides the relational substrate for the evaluation
// engines: interned symbols, set-semantics relations over fixed-arity
// tuples, per-column hash indexes, and instrumentation counters that
// measure the paper's Property 3 ("never do an unrestricted lookup on a
// nonrecursive relation").
//
// # Columnar layout
//
// Each shard stores its tuples column-major in arena blocks: a block is
// one flat []Value slab holding 1024 rows of every column, and a tuple
// is identified by its dense row id — there are no per-tuple slice
// headers anywhere in the store. Inserts append to the current block
// and dedup through an open-addressing hash table over row ids keyed by
// a word-at-a-time tuple hash (HashTuple), so neither insertion nor
// membership builds a string key. Per-column indexes are map[Value] ->
// []rowID posting lists built lazily on first use. Scan and Lookup
// yield rows through a reused buffer: the yielded Tuple is valid only
// for the duration of the callback, and callers that keep tuples copy
// them (Clone). Tuples, SortedTuples, and DeltaSince return fresh
// arena-backed copies that never alias the live column arrays.
//
// # Sharding
//
// A Relation is hash-partitioned on ShardColumn into N independently
// locked shards (N is 1 for NewRelation; NewShardedRelation and
// Database.SetShards choose larger powers of two, defaulting to
// GOMAXPROCS for databases). Each shard owns its column blocks, dedup
// table, and lazily built per-column indexes, so concurrent inserts from
// parallel workers — the Fig. 9 carry-batch workers in particular —
// serialize only when their tuples hash to the same partition. A Lookup
// bound on ShardColumn probes exactly one shard; other lookups fan out
// across all of them.
//
// # Concurrency and snapshots
//
// SymbolTable, Relation, and Database are safe for any number of
// concurrent readers with concurrent writers, so one Engine can serve
// parallel queries over a shared EDB while loaders insert. Iteration
// (Scan, Lookup, Tuples) works on a snapshot of each shard's row count
// captured at call time: blocks are append-only and rows are never
// mutated in place, so the first `rows` rows are immutable and a
// goroutine may insert into the very relation it is scanning — the
// fixpoint loops rely on this — without deadlock. Sharded relations do
// not preserve global insertion order across shards; use SortedTuples
// (or SortedColumns, which the WAL snapshot writer consumes directly)
// for deterministic output. The one operation that breaks the
// append-only rule is Relation.Reset, which empties an untracked scratch
// relation in place for reuse (first block and dedup table kept): its
// owner must have no reader or writer in flight, and a tracked relation
// refuses it.
//
// # The write path, epochs and delta tracking
//
// Every mutation of a relation is a signed run of tuples committed by
// one routine (Relation.commit): Insert and Retract are runs of one,
// InsertBatch and RetractBatch longer ones, and nothing else claims or
// tombstones rows, advances the bookkeeping, or calls the Journal and
// the watchers. A primary Database (NewDatabase) carries a monotone
// epoch counter that ticks once per accepted mutation — insert or
// retraction, single or inside a run — so the epoch equals the number of
// journaled records and a log replayed record by record reproduces it.
// Each accepted mutation is stamped, under its shard's lock, with the
// epoch its run moves the counter away from (Database.stampRun raises
// the LastModified watermarks first, so a reader that has seen a later
// epoch never skips the relation) and recorded in a bounded per-shard
// delta tail. Relation.DeltaSince(epoch)
// returns exactly the signed delta stamped at or after a given epoch
// (falling back with ok=false once the tail evicted the requested
// history), which is what the engine's materialized-answer cache and
// the WAL's differential checkpoints run on. Derived databases
// (NewDatabaseWith) and free-standing relations skip all of this
// tracking.
package storage
