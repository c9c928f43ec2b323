package onesided

import (
	"repro/internal/storage"
	"repro/internal/wal"
)

// engineConfig collects Open options.
type engineConfig struct {
	db              *storage.Database
	program         *Program
	strategyNames   []string
	planCacheSize   int
	resultCacheSize int
	autoCheckpoint  int
	persistDir      string
	syncPolicy      wal.SyncPolicy
	quota           Quota
}

// Option configures an Engine at Open time.
type Option func(*engineConfig)

// WithDatabase makes the engine serve queries over an existing database
// instead of a fresh empty one. The database may be shared: storage is
// safe for concurrent readers and writers.
func WithDatabase(db *Database) Option {
	return func(c *engineConfig) { c.db = db }
}

// WithProgram loads a parsed program at Open time (LoadProgram): ground
// facts go into the database, rules become the engine's program. Open
// fails when the facts are refused — over WithQuota's MaxFacts, or of
// the wrong arity for an existing relation.
func WithProgram(p *Program) Option {
	return func(c *engineConfig) { c.program = p }
}

// WithStrategies restricts and orders the strategy chain the engine
// tries at Prepare time. Names resolve against the served set
// (StrategyNames); Open fails on an unknown name. The default chain is
// ["onesided", "magic", "edb"]: the paper's planner first (it also plans
// Section 5's multi-rule recursions whose bound columns persist in every
// rule), Magic Sets as the general fallback (exactly the paper's own
// baseline for many-sided recursions), and plain indexed lookup for base
// relations.
func WithStrategies(names ...string) Option {
	return func(c *engineConfig) { c.strategyNames = names }
}

// WithPlanCache sets the plan-skeleton cache capacity. Plans are keyed
// by query shape (predicate + adornment + variable-repetition pattern)
// and evicted least-recently-used when the cache exceeds the bound; a
// hit moves the shape to the front. 0 disables caching. The default is
// 256 entries.
func WithPlanCache(entries int) Option {
	return func(c *engineConfig) { c.planCacheSize = entries }
}

// WithResultCache sets the bound-result cache capacity: materialized
// answer sets keyed on (query shape, bound constants), each stamped with
// the database epoch it was computed at. A repeated query whose stamp is
// still current is served from the cache; after inserts or retractions
// the plan moves its retained fixpoint by exactly the signed delta
// (Relation.DeltaSince) instead of re-evaluating. Entries are evicted
// least-recently-used. 0 disables the cache — every Query evaluates.
// The default is 64 entries.
//
// Rows served from the cache share the maintained answer relation: a
// later insert that updates the entry grows the same relation the
// earlier Rows views. Iterate promptly or copy if exact point-in-time
// contents matter.
func WithResultCache(entries int) Option {
	return func(c *engineConfig) { c.resultCacheSize = entries }
}

// WithAutoCheckpoint makes a persistent engine checkpoint automatically
// once every inserts accepted fact inserts since the last checkpoint
// (explicit or automatic). It only has an effect together with
// WithPersistence; <= 0 (the default) disables auto-checkpointing.
// Auto-checkpoints run synchronously on the mutating call that crosses
// the threshold; the first failure is latched and surfaced by Close.
func WithAutoCheckpoint(inserts int) Option {
	return func(c *engineConfig) { c.autoCheckpoint = inserts }
}

// SyncPolicy selects when the persistence log fsyncs appended records:
// SyncBatch (the default) amortizes one fsync over a filled batch
// buffer, SyncAlways fsyncs every accepted insert. See the wal package
// for the durability/throughput trade-off.
type SyncPolicy = wal.SyncPolicy

// Sync policy values for WithSyncPolicy.
const (
	SyncBatch  = wal.SyncBatch
	SyncAlways = wal.SyncAlways
)

// WithPersistence makes the engine durable: dir holds an append-only,
// CRC-checked segment log plus checkpoint snapshots. Open replays the
// newest snapshot and the log tail into the database (tolerating a torn
// final record from a crash), restores the program's rules, rewarms the
// plan-skeleton cache from the persisted query shapes, and journals
// every accepted fact insert, fresh symbol intern, and loaded rule from
// then on. Pair with Engine.Checkpoint to compact the log and
// Engine.Close to flush it on shutdown. With WithDatabase, state already
// in the database at Open is captured by an immediate checkpoint.
func WithPersistence(dir string) Option {
	return func(c *engineConfig) { c.persistDir = dir }
}

// WithSyncPolicy sets the fsync policy of the persistence log (default
// SyncBatch). It only has an effect together with WithPersistence.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *engineConfig) { c.syncPolicy = p }
}
