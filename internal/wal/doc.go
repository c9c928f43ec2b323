// Package wal is the engine's durability subsystem: an append-only,
// CRC-checked segment log plus compact snapshots, giving
// storage.Database (and the Engine façade above it) kill -9 crash
// recovery.
//
// # On-disk layout
//
// A log directory holds numbered segment files and one snapshot file
// (two only in the moment between a checkpoint's snapshot write and its
// prune):
//
//	data/
//	  seg-0000000000000007.wal    sealed segment (covered by the snapshot)
//	  snap-0000000000000007.snap  snapshot of everything through segment 7
//	  seg-0000000000000008.wal    tail segment(s), replayed over the snapshot
//	  seg-0000000000000009.wal    active segment (appends go here)
//
// Each segment starts with a 16-byte header (magic "OSRWAL1\n" plus the
// segment's sequence number) followed by length-prefixed records:
//
//	+----------------+----------------+--------------------------+
//	| len  uint32 LE | crc32c uint32  | payload (len bytes)      |
//	+----------------+----------------+--------------------------+
//	payload = kind byte + body
//	  kind 1 sym:  constant name (interned as the next dense Value)
//	  kind 2 fact: pred string, arity, then arity uvarint Values
//	  kind 3 rule: rule source text in the parser's concrete syntax
//	  kind 4 retract: same body as fact; the tuple leaves the set
//
// The CRC (Castagnoli) covers the payload; a record whose length field
// runs past the file, or whose CRC does not match, marks the torn tail
// of a crashed append. Fact records reference interned Values rather
// than names, so a sym record always precedes the first fact record
// using its Value — storage's intern hook runs under the symbol table
// lock, which orders the appends.
//
// # Snapshots and recovery
//
// A snapshot (written by Engine.Checkpoint via Log.Checkpoint) is the
// engine state through a segment sequence number, self-contained: the
// symbol table in Value order, every relation's tuples (sorted, as
// compact value blocks) with per-relation epoch/count metadata, the
// program's rules, and the plan cache's query shapes for LRU rewarming.
// It is written to a temp file, fsynced, and renamed, so a crash
// mid-checkpoint leaves the previous snapshot authoritative; once the
// rename lands, the segments it covers and every other snapshot are
// deleted. Each checkpoint rewrites the whole database.
//
// Recovery (Log.Open) loads the newest snapshot that reads and
// validates, replays the segments above it in sequence order, and
// appends to a fresh segment. An unreadable snapshot falls back to its
// predecessor (or to none) only when every segment above that one is
// still on disk — the crash window between a checkpoint's rename and its
// prune; a gap in the segments fails recovery, with ErrCorruptSnapshot
// when a skipped snapshot covered it, instead of silently replaying
// around it. A snapshot in a retired format, the differential OSRSNAP3
// form included, fails recovery with ErrSnapshotVersion. In the final —
// active at crash time — segment, replay stops at the first invalid
// record and truncates the file there: a torn last append costs exactly
// the facts that had not finished reaching the OS, never the prefix. An
// invalid record in a sealed (non-final) segment is real corruption and
// fails recovery loudly.
//
// # Sync policies
//
// Appends are buffered; SyncPolicy controls when the buffer reaches the
// disk platter: SyncBatch (default) fsyncs whenever the batch buffer
// fills and at every rotation, SyncAlways fsyncs before acknowledging each
// journal call (concurrent writers share fsyncs by group commit). See
// the benchmarks for the cost spread.
//
// A journal call is the unit of durability: JournalRuns frames the
// records of every run a commit accepted — a whole write request, over
// any number of predicates, inserts and retractions — into one buffer
// and passes it through the sync policy once, and AppendRules does the
// same for the rules of one load; under SyncAlways either returns only
// after an fsync that covers all of its records. The records themselves
// are ordinary: the format has no group marker, replay and followers
// apply them one at a time, and a crash mid-call keeps whatever
// record-order prefix of the buffer reached the disk.
package wal
