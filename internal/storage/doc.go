// Package storage provides the relational substrate for the evaluation
// engines: interned symbols, set-semantics relations over fixed-arity
// tuples, per-column hash indexes, and instrumentation counters that
// measure the paper's Property 3 ("never do an unrestricted lookup on a
// nonrecursive relation").
//
// # Columnar layout
//
// A Relation stores its tuples column-major in arena blocks: a block is
// one flat []Value slab holding 1024 rows of every column, and a tuple
// is identified by its dense row id — there are no per-tuple slice
// headers anywhere in the store. Inserts append to the current block
// and dedup through an open-addressing hash table over row ids keyed by
// a word-at-a-time tuple hash (HashTuple), so neither insertion nor
// membership builds a string key. Per-column indexes are posting
// directories built lazily on first use: a flat table of 8-byte slots,
// each naming a key's rows itself — its one row, and in a table whose
// slot is its key's (dense, below) a count of rows side by side, a range
// — or holding a reference to an entry in an arena of chunks that never
// move (directory.go): a run of ids, or a hashed table's range, two
// words. The first directory a tracked relation builds, while
// it has no tombstone, first lays its rows out afresh sorted by that
// column (store.cluster), so that each key's rows there are one range and
// a gather copies them as slices of their blocks; the rows the delta tail
// or a handed-out window can still name stay where they are, and a
// relation whose rows are already in that order is left as it is. A table
// whose keys are dense addresses a key's slot
// by value, slots[v-base]: built in bulk when the keys span at most 8/3
// slots a key, grown when they span at most 2 of the 8/3 it gets — never
// more slots than a hashed table holds right after it doubles at 3/4
// load. Any other table is Fibonacci-hashed, linear probing. Either keeps
// its keys' range; a dense table's probe reads its key's slot and nothing
// else, a hashed table's reads no slot outside the range, and a hashed table
// whose keys span at most 64 values a slot also keeps a presence bitmap,
// one bit per value over that span, and a probe whose bit is clear
// reads no slot either — no probe walk for a miss. Interned Values
// are dense in first-seen order, so the consecutive keys a walk down a
// chain probes sit side by side. Neither the directories nor the
// symbol table hold a pointer per entry: the table copies each name into
// a few large text chunks and indexes them by position (symbols.go), so
// nothing a caller passes in — a slice of a source text, a decoded
// request — is retained. Database.Footprint reports what each structure
// holds, from lengths and capacities. Scan and Lookup
// yield rows through a reused buffer: the yielded Tuple is valid only
// for the duration of the callback, and callers that keep tuples copy
// them (Clone). Tuples and SortedTuples return fresh arena-backed copies
// that never alias the live column arrays; DeltaSince copies nothing it
// need not (see below).
//
// # Concurrency and snapshots
//
// SymbolTable, Relation, and Database are safe for any number of
// concurrent readers with concurrent writers, so one Engine can serve
// parallel queries over a shared EDB while loaders insert. A relation is
// one store — column blocks, dedup table and directories — with one lock,
// taken by its writers, and by the membership probes (Contains, Offer) as
// readers; a commit's run is hashed and applied under one acquisition of
// it. Scan and Lookup take no lock at all. Iteration (Scan, Lookup,
// Tuples) works on a snapshot captured at call time — the store's
// published row count, or the published length of a key's run — without
// locking: blocks are append-only and rows are never mutated in place,
// so what the snapshot names is immutable, and a goroutine may insert
// into the very relation it is scanning — the fixpoint loops rely on this
// — without deadlock. The writer publishes a block before any count or
// run that names a row in it, and readers load the block list last (see
// store in storage.go for the two rules). Lookup counts its work in the
// Counters the relation reports to, or — LookupTally — in a Tally the
// calling goroutine owns and adds in when its work is done, so that a
// probe writes no shared memory at all; Counters are therefore exact
// between evaluations, not during one. A probe is a chain of dependent
// loads — the directory slot; the entry, unless the slot word names the
// rows itself (a lone row — every key of a chain, a tree, a functional
// column — or a dense table's range, every key of a clustered relation);
// the block row — and a caller with many independent keys for one column
// hands them over together (LookupKeys): sixteen probes at a time load
// their slots, then their entries, then up to sixty-four of their rows, and
// only then yield, in key order — the tuples, order and counts of one
// Lookup per key, with the misses overlapped. A caller that wants only
// some columns and no callback gathers instead (GatherKeys): the same
// stages, then each live row's wanted columns appended to the caller's
// buffer, key by key, with where each key's rows end — no row copied
// whole, nothing yielded, the counts those of LookupKeys run to its end.
// In a directory a reference is stored after what it refers to — a key's
// presence bit is set before its slot word, and a row is in its block
// before the slot word whose count covers it, which is how a dense table's
// range takes the next row in place — and a reader loads the slot, then
// the arena's chunk list, then the entry; every slot and entry of a
// stage is loaded before the block list. A probe that yields reads its
// rows through one routine (storeView.readKeyed); a gather reads a run's
// or a range's through its column-at-a-time twin (storeView.appendRows),
// which copies each wanted column in its own loop — a range's as a slice
// of each block it crosses — and only then, where the view has
// tombstones, closes up over the dead rows; a gather of one key
// (GatherKey) loads its slot word, then the block list, then the
// tombstone bit, and when the word names the key's one row, live, and one
// column is wanted, returns that value itself — nothing appended; and a
// staged gather appends a range inside one block, of which one column is
// wanted and none is dead, as one slice of it. Iteration follows insertion order until a tracked relation's
// first directory clusters its rows, and the clustered order after that;
// the rows of one key of the clustering column keep their insertion order
// always, and so do those of any key of an untracked relation (answer
// sets, seen-sets, derived databases' relations), whose rows never move.
// Use SortedTuples (or SortedColumns, which the WAL snapshot writer
// consumes directly) for output that does not depend on it. Besides the
// first directory's move, which writes only fresh blocks and publishes
// them before the directory that names the rows' new places, the one
// operation that breaks the append-only rule is Relation.Reset, which
// empties an untracked scratch relation in place for reuse (first block
// and dedup table kept): its owner must have no reader or writer in
// flight, and a tracked relation refuses it.
//
// # The write path, epochs and delta tracking
//
// Every mutation of a relation is a signed run of tuples, every commit
// one or more runs, and one routine commits them (commitRuns): Insert
// and Retract are commits of a run of one, InsertBatch and RetractBatch
// of a longer one, Database.Commit of the runs of a whole write request
// — inserts and retractions over any number of relations — and nothing
// else claims or tombstones rows, advances the bookkeeping, or calls the
// Journal and the watchers. A commit applies its runs in order and then
// publishes once: one Journal call covering the accepted tuples of all
// runs, which returns only after the journal's policy sync (one fsync in
// the write-ahead log's strictest mode), and then one watcher
// notification — so a watcher never hears of a write that is not yet
// durable, and a write request is one tick however many predicates it
// touched. A commit is not atomic: readers may see its earlier runs
// before its later ones, and a crash before the Journal call returns may
// keep any record-order prefix of it. Retraction runs wait for in-flight
// maintenance passes (Database.HoldRetractions) at a gate the commit
// takes once. A primary Database (NewDatabase) carries a monotone
// epoch counter that ticks once per accepted mutation — insert or
// retraction, single or inside a run — so the epoch equals the number of
// journaled records and a log replayed record by record reproduces it.
// Each accepted mutation is stamped, under its relation's lock, with the
// epoch its run moves the counter away from (Database.stampRun raises
// the LastModified watermarks first, so a reader that has seen a later
// epoch never skips the relation) and recorded in the relation's bounded
// delta tail, so a run's mutations share one stamp and LastModified
// depends only on the history of commits. Relation.DeltaSince(epoch)
// returns exactly the signed delta stamped at or after a given epoch
// (falling back with ok=false once the tail evicted the requested
// history), which is what the engine's materialized-answer cache runs on.
// Its inserts are not copied out: rows are appended and
// stamped in row order, so they are a window [lo, hi) of the relation's
// own rows, handed out as a read-only Relation that probes the base
// relation's directories narrowed to it (window.go). The window is sound
// while no retraction can tombstone a row in it — a maintenance pass
// reads it under Database.HoldRetractions — and its retractions, whose
// rows are dead, are copied. A window may outlive the tail entries that
// named its rows, so DeltaSince also lowers a watermark that keeps the
// first directory's move below every window it handed out. Derived databases
// (NewDatabaseWith) and free-standing relations skip all of this
// tracking, and a derived database's relations count into no Counters.
package storage
