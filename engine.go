package onesided

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Engine is the database/sql-style façade over the paper's machinery: it
// owns a database (symbol table + relations), a program, a strategy
// chain, and an adornment-keyed plan cache. One Engine serves any
// number of concurrent queries; storage is safe for parallel readers
// with writers, and prepared plans are immutable after construction.
//
// Query planning is Naughton's optimize-then-detect procedure made
// operational: for each query the engine walks its strategy chain —
// by default the one-sided planner (Theorem 3.4 + the Fig. 9 schema, and
// the persistent-column reduction for Section 5's multi-rule
// recursions), then Magic Sets (the paper's own general baseline), then
// plain base-relation lookup — and the first
// strategy that accepts the query plans it. Explain reports the chosen
// strategy and why the others declined.
//
// Plans are compiled once per (program, predicate, adornment): every
// analysis the planner performs depends only on which query columns are
// bound, so t(paris, Y) and t(lyon, Y) share one compiled skeleton and
// differ only in the constants bound into it at Prepare (or
// PreparedQuery.Bind) time — a map hit plus a shallow substitution
// instead of the full optimize-then-detect pipeline.
type Engine struct {
	db         *storage.Database
	strategies []Strategy
	// log is the durability subsystem (nil without WithPersistence):
	// accepted inserts and fresh interns reach it through the database's
	// journal hook, loaded rules through LoadProgram, and Checkpoint
	// compacts it into a snapshot. It is an atomic pointer because a
	// follower promotion attaches a log to a running engine
	// (AttachPersistence) while queries and stats readers are active.
	log atomic.Pointer[wal.Log]

	// readOnly, when set, makes the write entry points (Apply and
	// everything built on it) fail with ErrReadOnly.
	// Replication appliers bypass it by writing through the database
	// directly; serving layers map it to a redirect at the primary.
	readOnly atomic.Bool

	// closersMu guards closers: hooks registered by OnClose that Close
	// runs (LIFO) before closing the log — the follower tail loop uses
	// one to stop its apply goroutine.
	closersMu sync.Mutex
	closers   []func() error

	mu      sync.Mutex   // guards program, gen, cache, and lru
	program *ast.Program // treated as immutable; LoadProgram swaps in a new one
	gen     uint64       // bumped on every program change
	// cache maps a skeleton key to its lru element; lru orders the
	// elements most-recently-used first and bounds them at cacheCap.
	cache    map[string]*list.Element
	lru      *list.List
	cacheCap int

	// Bound-result cache: materialized answers keyed on (skeleton, slot
	// values), each stamped with the database epoch it is current as of.
	// A stale entry is Updated with DeltaSince(stamp) instead of
	// re-evaluated. resMu guards only the
	// map and LRU list; each entry carries its own lock (lock order:
	// e.mu before resMu, entry locks outside both).
	resMu       sync.Mutex
	resCache    map[string]*list.Element
	resLRU      *list.List
	resCacheCap int

	// autoEvery, when > 0, checkpoints automatically once that many
	// accepted inserts accumulated since the last checkpoint; ckptMark
	// remembers the mutation count at the last checkpoint and autoErr
	// latches the first auto-checkpoint failure (surfaced by Close).
	autoEvery int
	ckptMark  atomic.Int64
	autoErr   atomic.Pointer[error]

	// quota is the engine's default resource bounds (see WithQuota):
	// MaxFacts gates InsertFact, MaxDerived is the default per-query gas
	// budget withGasCtx attaches.
	quota Quota

	hits, misses, evictions, rewarmed           atomic.Int64
	resHits, resUpdated, resRebuilt, resRefixed atomic.Int64

	// subs counts the open subscriptions (Subscribe), gated by the
	// quota's MaxSubscriptions.
	subs atomic.Int64
}

// Open creates an Engine. With no options it has an empty database, an
// empty program, the default strategy chain, a 256-entry plan cache, and a
// 64-entry bound-result cache (maintained answers, see WithResultCache).
// Every query evaluates on the goroutine that asked for it; the cores are
// used by concurrent requests.
func Open(opts ...Option) (*Engine, error) {
	cfg := engineConfig{planCacheSize: 256, resultCacheSize: 64}
	for _, o := range opts {
		o(&cfg)
	}
	strategies, err := resolveStrategies(cfg.strategyNames)
	if err != nil {
		return nil, err
	}
	db := cfg.db
	if db == nil {
		db = storage.NewDatabase()
	}
	e := &Engine{
		db:          db,
		strategies:  strategies,
		program:     ast.NewProgram(),
		cache:       make(map[string]*list.Element),
		lru:         list.New(),
		cacheCap:    cfg.planCacheSize,
		resCache:    make(map[string]*list.Element),
		resLRU:      list.New(),
		resCacheCap: cfg.resultCacheSize,
		autoEvery:   cfg.autoCheckpoint,
		quota:       cfg.quota,
	}
	var shapes []string
	var bootstrap bool
	if cfg.persistDir != "" {
		shapes, bootstrap, err = e.openPersistence(cfg)
		if err != nil {
			return nil, err
		}
	}
	if cfg.program != nil {
		err = e.LoadProgram(cfg.program)
	}
	if lg := e.log.Load(); lg != nil {
		// Rewarm after every program load: LoadProgram resets the cache.
		e.rewarmShapes(shapes)
		if bootstrap && err == nil {
			// WithDatabase handed us state that predates the journal;
			// capture it in a snapshot so a crash before the first
			// explicit Checkpoint still recovers it.
			err = e.Checkpoint()
		}
		if err != nil {
			lg.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// openPersistence recovers the state persisted in cfg.persistDir into
// the engine's database and program, attaches the write-ahead log as
// the database's journal, and returns the persisted plan-cache shapes
// (to rewarm once all rules are loaded) plus whether the database held
// pre-journal state that needs a bootstrap checkpoint.
func (e *Engine) openPersistence(cfg engineConfig) (shapes []string, bootstrap bool, err error) {
	db := e.db
	bootstrap = db.Syms.Len() > 0 || db.TupleCount() > 0
	var ruleSrcs []string
	replay := wal.ReplayInto(db)
	replay.Rule = func(src string) { ruleSrcs = append(ruleSrcs, src) }
	replay.Shape = func(q string) { shapes = append(shapes, q) }
	log, err := wal.Open(cfg.persistDir, cfg.syncPolicy, replay)
	if err != nil {
		return nil, false, err
	}
	// Restore the program directly — these rules are already persisted;
	// routing them through LoadProgram would journal them again.
	prog := ast.NewProgram()
	seen := make(map[string]bool, len(ruleSrcs))
	for _, src := range ruleSrcs {
		r, perr := parser.ParseRule(src)
		if perr != nil {
			log.Close()
			return nil, false, fmt.Errorf("onesided: persisted rule %q: %w", src, perr)
		}
		if key := r.String(); !seen[key] {
			seen[key] = true
			prog.Rules = append(prog.Rules, r)
		}
	}
	e.program = prog
	// Replay inserts are recovery work, not workload instrumentation.
	db.Stats.Reset()
	e.log.Store(log)
	db.SetJournal(log)
	// A log written before rule constants were interned at load time may
	// lack some: intern them now, journaled like any fresh symbol.
	e.internConsts(prog.Rules)
	return shapes, bootstrap, nil
}

// internConsts interns every constant the rules mention. Rules are
// range-restricted, so once a program's constants are in the symbol table
// beside the facts', a constant the table has never seen can occur in no
// answer: that is what lets a query resolve its own constants with Lookup
// and write nothing (PreparedQuery.unseenConst).
func (e *Engine) internConsts(rules []ast.Rule) {
	atom := func(a ast.Atom) {
		for _, t := range a.Args {
			if t.IsConst() {
				e.db.Syms.Intern(t.Name)
			}
		}
	}
	for _, r := range rules {
		atom(r.Head)
		for _, a := range r.Body {
			atom(a)
		}
	}
}

// DB returns the engine's database for direct fact loading and
// inspection.
func (e *Engine) DB() *Database { return e.db }

// AddFact inserts one fact, reporting whether the tuple was genuinely
// new (false on a duplicate). It is InsertFact with rejections (quota,
// read-only follower, arity mismatch) flattened to false — the same
// admission and journal path, so the fact quota cannot be bypassed by
// picking the error-free entry point.
func (e *Engine) AddFact(pred string, consts ...string) bool {
	added, _ := e.InsertFact(pred, consts...)
	return added
}

// Retract removes the tuple from the named relation, reporting whether
// it was present: RetractFacts of one fact. A retraction journals like
// an insert (its own WAL record kind), stamps the database epoch — so
// cached results observe it as a signed delta and maintained plans run
// their delete-rederive pass — and counts toward auto-checkpointing. A
// read-only engine (replication follower) rejects with ErrReadOnly.
func (e *Engine) Retract(pred string, consts ...string) (bool, error) {
	n, err := e.RetractFacts([]Fact{{Pred: pred, Args: consts}})
	return n == 1, err
}

// Load parses a source text in Prolog syntax and loads it like
// LoadProgram, returning any "?- q(...)." queries it contained. When
// the ground facts are refused (see LoadProgram) the queries come back
// alongside that error.
func (e *Engine) Load(src string) ([]Atom, error) {
	prog, queries, err := ParseSource(src)
	if err != nil {
		return nil, err
	}
	return queries, e.LoadProgram(prog)
}

// LoadProgram inserts the program's ground facts into the database and
// appends its rules to the engine's program, invalidating the plan
// cache. The facts are one InsertFacts batch, under its admission rules:
// the error is ErrFactLimitExceeded, ErrReadOnly or ErrArityMismatch
// when some were refused, and the rules load regardless. Loading is
// idempotent: rules textually identical to ones already loaded are
// skipped (so re-loading a source file over a persistent engine — the
// CLI restart pattern — does not duplicate the program), and fact
// inserts dedup in storage. The rules' constants are interned here, once,
// so that no query ever has to (internConsts). With persistence, the
// rules a load added are journaled as one group (one fsync under
// SyncAlways, however many), and a log that has failed is reported as
// ErrDurability. The engine's program is copy-on-write: in-flight queries
// keep evaluating their consistent snapshot.
func (e *Engine) LoadProgram(p *Program) error {
	facts, rules := SplitFacts(p)
	var err error
	if len(facts) > 0 {
		_, err = e.InsertFacts(facts)
	}
	e.internConsts(rules.Rules)
	e.mu.Lock()
	merged := ast.NewProgram()
	merged.Rules = append(merged.Rules, e.program.Rules...)
	seen := make(map[string]bool, len(merged.Rules)+len(rules.Rules))
	for _, r := range merged.Rules {
		seen[r.String()] = true
	}
	var added []ast.Rule
	for _, r := range rules.Rules {
		if key := r.String(); !seen[key] {
			seen[key] = true
			merged.Rules = append(merged.Rules, r)
			added = append(added, r)
		}
	}
	// Plans depend only on the rule set, so a load that added nothing —
	// the CLI re-reading its source file over a persistent engine —
	// keeps the cache (and its rewarmed skeletons) intact.
	if len(added) > 0 {
		e.program = merged
		e.gen++
		e.cache = make(map[string]*list.Element)
		e.lru.Init()
		// Result-cache entries hold fixpoint state of the old program.
		e.resMu.Lock()
		e.resCache = make(map[string]*list.Element)
		e.resLRU.Init()
		e.resMu.Unlock()
	}
	log := e.log.Load()
	e.mu.Unlock()
	if len(added) > 0 {
		if log != nil {
			srcs := make([]string, len(added))
			for i, r := range added {
				srcs[i] = parser.RenderRule(r)
			}
			log.AppendRules(srcs...)
		}
		// No fact moved, so no commit wakes the standing queries: their
		// answers under the new rules are due all the same.
		e.db.NotifyWatchers()
	}
	return e.durable(err)
}

// Program returns a snapshot of the engine's current rule set.
func (e *Engine) Program() *Program {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.program.Clone()
}

// StrategyAttempt records why a strategy in the chain declined a query.
type StrategyAttempt struct {
	Strategy string
	Reason   string
}

// Explain reports how a query will be (or was) evaluated: the strategy
// the planner chose, the query's adornment, the Theorem 3.4 verdict and
// Fig. 9 mode when the one-sided planner ran, how the plan cache served
// the skeleton, and which earlier strategies declined and why.
type Explain struct {
	eval.StrategyExplain
	// Rejected lists the strategies tried before the chosen one.
	Rejected []StrategyAttempt
	// PlanCache says how the plan skeleton was obtained: "hit" (cache),
	// "miss" (compiled and cached), "bind" (rebound from an existing
	// PreparedQuery), or "" for uncached explicit-program planning.
	PlanCache string
	// ResultCache says how the bound-result cache served the answers:
	// "hit" (materialized answers still current at the database epoch),
	// "updated" (maintained answers moved by the signed delta since their
	// stamp), "rebuilt" (evaluated in full — first build, eviction, an
	// overflowed delta tail, or after a maintenance pass was cut short
	// by cancellation or gas), or "" when the result cache did not
	// participate (streaming, explicit-program plans, a disabled cache,
	// or a query naming a constant the database has never seen, answered
	// empty unevaluated).
	ResultCache string
	// Batches is the number of carry batches the Fig. 9 loop walked. It
	// is filled on the Explain a Rows reports after evaluation; a
	// pre-evaluation PreparedQuery.Explain leaves it 0.
	Batches int
	// Overdeleted and Rederived are what delete-rederive did over the
	// maintenance passes the answers have absorbed since they were built
	// (eval.EvalStats): candidates taken out, and candidates put back.
	Overdeleted int
	Rederived   int
	// Refixes counts the maintenance passes since the build that overran
	// their round budget and re-ran the Fig. 9 loop instead (context mode).
	Refixes int
}

// String renders the report in the compact key=value form the CLI and
// examples print, e.g.
// `strategy=onesided adornment=bf plan-cache=hit mode=context carry-arity=1 batches=4`;
// answers that have absorbed retractions add `dred=<overdeleted>/<rederived>`,
// and answers a maintenance pass refixed `refix=<passes>`.
func (ex Explain) String() string {
	var b strings.Builder
	field := func(key, val string) {
		if val != "" {
			b.WriteString(key)
			b.WriteString(val)
		}
	}
	count := func(key string, n int) {
		if n > 0 {
			b.WriteString(key)
			b.WriteString(strconv.Itoa(n))
		}
	}
	b.WriteString("strategy=")
	b.WriteString(ex.Strategy)
	field(" adornment=", ex.Adornment)
	field(" plan-cache=", ex.PlanCache)
	field(" result-cache=", ex.ResultCache)
	if ex.Mode != "" {
		field(" mode=", ex.Mode)
		b.WriteString(" carry-arity=")
		b.WriteString(strconv.Itoa(ex.CarryArity))
	}
	if ex.Verdict != "" {
		field(" verdict=", strconv.Quote(ex.Verdict))
	}
	count(" batches=", ex.Batches)
	if ex.Overdeleted > 0 || ex.Rederived > 0 {
		b.WriteString(" dred=")
		b.WriteString(strconv.Itoa(ex.Overdeleted))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(ex.Rederived))
	}
	count(" refix=", ex.Refixes)
	if ex.Detail != "" {
		b.WriteString(" (")
		b.WriteString(ex.Detail)
		b.WriteByte(')')
	}
	for _, r := range ex.Rejected {
		b.WriteString("; ")
		b.WriteString(r.Strategy)
		b.WriteString(" declined: ")
		b.WriteString(r.Reason)
	}
	return b.String()
}

// planSkeleton is one plan cache entry: the strategy-chain result for a
// canonical query shape, parameterized over its constant slots. It is
// immutable after construction and shared by every PreparedQuery of the
// shape.
type planSkeleton struct {
	key      string
	adorned  eval.AdornedQuery
	prepared eval.PreparedStrategy
	rejected []StrategyAttempt
	// slots is the number of constants a binding supplies.
	slots int
}

// displayShape renders a skeleton key for humans: the NUL byte that
// keeps slot placeholders disjoint from real constants is stripped, so
// slots show as $0, $1, ...
func displayShape(key string) string {
	return strings.ReplaceAll(key, "\x00", "")
}

// display renders the skeleton key for humans.
func (ps *planSkeleton) display() string { return displayShape(ps.key) }

// explain is the skeleton's plan report: the chosen strategy's and the
// reasons of those that declined before it. A skeleton no strategy
// accepted reports strategy "none".
func (ps *planSkeleton) explain() Explain {
	ex := Explain{Rejected: ps.rejected}
	if ps.prepared == nil {
		ex.Strategy, ex.Adornment = "none", ps.adorned.Adornment.String()
	} else {
		ex.StrategyExplain = ps.prepared.Explain()
	}
	return ex
}

// PreparedQuery is a planned, reusable, concurrency-safe query: the
// strategy analysis (Decide/Optimize, Magic rewriting, ...) ran once at
// skeleton-compile time, and each Query call only evaluates. The query's
// constants are checked against the skeleton's slots when the
// PreparedQuery is made and bound into a private copy of the plan by the
// first evaluation that needs it — a query the bound-result cache answers
// never binds. Bind instantiates the same shared skeleton with different
// constants without re-planning.
type PreparedQuery struct {
	engine   *Engine
	query    ast.Atom
	skeleton *planSkeleton
	cache    string // "hit", "miss", "bind", or "" for uncached planning
	// consts are the slot values of this query (the second half of the
	// result-cache key); gen is the program generation the plan
	// was obtained under — the result cache only serves plans of the
	// current generation.
	consts []ast.Term
	gen    uint64
	// bound is the skeleton's plan with consts substituted, made once by
	// plan.
	bindOnce sync.Once
	bound    PreparedStrategy
	bindErr  error
}

// plan returns the evaluable plan: the skeleton with this query's
// constants bound, substituted on first use. Safe for concurrent use.
func (pq *PreparedQuery) plan() (PreparedStrategy, error) {
	pq.bindOnce.Do(func() {
		pq.bound, pq.bindErr = pq.skeleton.prepared.BindArgs(pq.consts...)
	})
	return pq.bound, pq.bindErr
}

// Prepare plans a query. The program argument selects what to plan
// against: nil means the engine's loaded program — those plans are
// cached per query shape (predicate + adornment + variable-repetition
// pattern) and reused, with LRU eviction, until the program changes; a
// non-nil program is planned fresh. The query atom uses constants at
// bound columns, e.g. t(paris, Y): a cache hit for a shape costs a map
// lookup plus a constant substitution, never a re-analysis. An explicit
// program's constants are interned here, as LoadProgram interns the
// engine's.
func (e *Engine) Prepare(program *Program, query Atom) (*PreparedQuery, error) {
	skel := ast.Skeletonize(query)
	if program != nil {
		e.internConsts(program.Rules)
		ps, err := e.compileSkeleton(program, skel, query)
		if err != nil {
			return nil, err
		}
		return e.bindSkeleton(ps, query, skel.Consts, "", 0)
	}
	e.mu.Lock()
	program = e.program
	gen := e.gen
	var ps *planSkeleton
	if el, ok := e.cache[skel.Key()]; ok {
		e.lru.MoveToFront(el)
		ps = el.Value.(*planSkeleton)
	}
	e.mu.Unlock()
	state := "hit"
	if ps != nil {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
		state = "miss"
		built, err := e.compileSkeleton(program, skel, query)
		if err != nil {
			return nil, err
		}
		ps = built
		if e.cacheCap > 0 {
			e.mu.Lock()
			// A concurrent LoadProgram may have changed the program since
			// the snapshot; caching the now-stale skeleton would serve it
			// forever.
			if e.gen == gen {
				ps = e.cacheInsertLocked(ps)
			}
			e.mu.Unlock()
		}
	}
	return e.bindSkeleton(ps, query, skel.Consts, state, gen)
}

// cacheInsertLocked adds ps to the plan cache, evicting LRU overflow,
// and returns the resident skeleton — the existing one when a
// concurrent Prepare of the same shape won the race. The caller holds
// e.mu and has checked the generation.
func (e *Engine) cacheInsertLocked(ps *planSkeleton) *planSkeleton {
	if el, ok := e.cache[ps.key]; ok {
		e.lru.MoveToFront(el)
		return el.Value.(*planSkeleton)
	}
	e.cache[ps.key] = e.lru.PushFront(ps)
	for e.lru.Len() > e.cacheCap {
		oldest := e.lru.Back()
		evicted := e.lru.Remove(oldest).(*planSkeleton)
		delete(e.cache, evicted.key)
		e.evictions.Add(1)
	}
	return ps
}

// compileSkeleton walks the strategy chain for a canonical query shape.
// query is the ground atom that triggered the compile, used only to
// phrase the all-strategies-declined error.
func (e *Engine) compileSkeleton(program *ast.Program, skel ast.SkeletonQuery, query ast.Atom) (*planSkeleton, error) {
	ps := e.planChain(program, skel)
	if ps.prepared != nil {
		return ps, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "onesided: no strategy accepts query %v:", query)
	for _, r := range ps.rejected {
		fmt.Fprintf(&b, "\n  %s: %s", r.Strategy, r.Reason)
	}
	return nil, fmt.Errorf("%s", b.String())
}

// planChain offers a canonical query shape to each strategy of the chain
// in turn. The skeleton holds the first plan and the reasons of the
// strategies that declined before it, or, when every strategy declined,
// no plan and all their reasons.
func (e *Engine) planChain(program *ast.Program, skel ast.SkeletonQuery) *planSkeleton {
	ps := &planSkeleton{key: skel.Key(), adorned: eval.AdornedQuery{Atom: skel.Atom, Adornment: skel.Adornment}, slots: skel.Atom.SlotCount()}
	for _, s := range e.strategies {
		prepared, err := s.Prepare(program, ps.adorned)
		if err != nil {
			ps.rejected = append(ps.rejected, StrategyAttempt{Strategy: s.Name(), Reason: err.Error()})
			continue
		}
		ps.prepared = prepared
		break
	}
	return ps
}

// bindSkeleton makes the PreparedQuery of a ground query over a
// skeleton. Constants that do not fit the skeleton's slots are refused
// here, with the strategy's own error; the substitution itself waits for
// PreparedQuery.plan. gen is the program generation the skeleton was
// obtained under (0 for explicit-program plans, which bypass caching).
func (e *Engine) bindSkeleton(ps *planSkeleton, query ast.Atom, consts []ast.Term, state string, gen uint64) (*PreparedQuery, error) {
	fits := len(consts) == ps.slots
	for _, c := range consts {
		fits = fits && c.IsConst()
	}
	pq := &PreparedQuery{engine: e, query: query.Clone(), skeleton: ps, cache: state, consts: consts, gen: gen}
	if !fits {
		if _, err := pq.plan(); err != nil {
			return nil, err
		}
	}
	return pq, nil
}

// Shape returns the canonical form of the query shape this prepared
// query was planned under, e.g. "t($0, V0)": same string, same shared
// skeleton. Slot placeholders $i mark the bound columns Bind fills.
func (pq *PreparedQuery) Shape() string { return pq.skeleton.display() }

// Adornment returns the bound/free pattern the plan was compiled for,
// e.g. "bf".
func (pq *PreparedQuery) Adornment() string { return pq.skeleton.adorned.Adornment.String() }

// Bind instantiates the prepared query's plan skeleton with new
// constants — one per bound column, in column order — without
// re-planning: t(paris, Y) rebinds to t(lyon, Y) for the cost of a
// shallow substitution. The receiver is unchanged.
func (pq *PreparedQuery) Bind(consts ...string) (*PreparedQuery, error) {
	terms := make([]ast.Term, len(consts))
	for i, c := range consts {
		terms[i] = ast.C(c)
	}
	query := ast.BindAtom(pq.skeleton.adorned.Atom, terms)
	return pq.engine.bindSkeleton(pq.skeleton, query, terms, pq.bindState(), pq.gen)
}

// bindState is the plan-cache marker a rebind inherits: "bind" for
// plans from the engine's cache, "" for explicit-program plans — the
// latter must stay out of the bound-result cache (its keys encode no
// program identity, only the engine's own generation-checked program).
func (pq *PreparedQuery) bindState() string {
	if pq.cache == "" {
		return ""
	}
	return "bind"
}

// BindAtom is Bind for a parsed ground query atom, which must have the
// same shape (predicate, adornment, and variable-repetition pattern) as
// the prepared query.
func (pq *PreparedQuery) BindAtom(q Atom) (*PreparedQuery, error) {
	skel := ast.Skeletonize(q)
	if skel.Key() != pq.skeleton.key {
		return nil, fmt.Errorf("onesided: query %v has shape %s, prepared query has %s",
			q, displayShape(skel.Key()), pq.skeleton.display())
	}
	return pq.engine.bindSkeleton(pq.skeleton, q, skel.Consts, pq.bindState(), pq.gen)
}

// Explain reports the plan without evaluating it. A plan's report does
// not depend on its constants (eval.PreparedStrategy), so the skeleton
// answers for every query bound from it.
func (pq *PreparedQuery) Explain() Explain {
	ex := pq.skeleton.explain()
	ex.PlanCache = pq.cache
	return ex
}

// Query evaluates the prepared plan against the engine's database,
// returning after the evaluation completes. It is safe to call
// concurrently from many goroutines; ctx cancels the fixpoint loops
// mid-evaluation. Use Stream to consume answers before the fixpoint
// finishes.
//
// Plans obtained from the engine's plan cache consult the bound-result
// cache first: a repeat of the same bound query whose answers are still
// current at the database epoch is served without evaluating, and after
// inserts or retractions the plan moves its retained fixpoint by just
// the signed delta. Explain reports the path taken as result-cache=hit,
// updated, or rebuilt.
func (pq *PreparedQuery) Query(ctx context.Context) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead context fails uniformly, even when the result cache could
	// have answered without evaluating: callers rely on errors.Is over
	// Query's error to distinguish deadline/cancel aborts.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pq.unseenConst() {
		return pq.noAnswers(), nil
	}
	ctx = pq.engine.withGasCtx(ctx)
	if pq.resultCacheable() {
		rows, handled, err := pq.engine.queryCached(ctx, pq)
		if handled || err != nil {
			return rows, err
		}
	}
	return pq.queryDirect(ctx)
}

// unseenConst reports whether the query names a constant the symbol
// table has never seen. Facts intern their constants when they are
// written and rules when they are loaded (internConsts), and rules are
// range-restricted, so such a query has no answers — and evaluating it
// would intern the constant: request text growing the symbol table and
// the log without bound, on followers too. A query resolves its constants
// with Lookup and writes nothing.
func (pq *PreparedQuery) unseenConst() bool {
	for _, c := range pq.consts {
		if _, ok := pq.engine.db.Syms.Lookup(c.Name); !ok {
			return true
		}
	}
	return false
}

// noAnswers is the Rows of a query with an unseen constant: empty, and
// nothing was built or cached for it.
func (pq *PreparedQuery) noAnswers() *Rows {
	return &Rows{rel: storage.NewRelation(pq.query.Arity(), nil), syms: pq.engine.db.Syms, explain: pq.Explain()}
}

// queryDirect evaluates without consulting the result cache.
func (pq *PreparedQuery) queryDirect(ctx context.Context) (*Rows, error) {
	plan, err := pq.plan()
	if err != nil {
		return nil, err
	}
	db := pq.engine.db
	before := db.Stats.Snapshot()
	rel, stats, err := eval.Eval(ctx, plan, db)
	if err != nil {
		return nil, err
	}
	return &Rows{
		rel:      rel,
		syms:     db.Syms,
		stats:    stats,
		counters: db.Stats.Snapshot().Sub(before),
		explain:  pq.explainWithStats(stats),
	}, nil
}

// resultCacheable reports whether this prepared query participates in
// the bound-result cache: it must come from the engine's plan cache
// (explicit-program plans have no generation to validate against) and
// the cache must be enabled.
func (pq *PreparedQuery) resultCacheable() bool {
	return pq.cache != "" && pq.engine.resCacheCap > 0
}

// explainWithStats enriches the plan explanation with what the
// evaluation reported.
func (pq *PreparedQuery) explainWithStats(stats eval.EvalStats) Explain {
	ex := pq.Explain()
	ex.Batches = stats.Batches
	ex.Overdeleted, ex.Rederived = stats.Overdeleted, stats.Rederived
	ex.Refixes = stats.Refixes
	return ex
}

// resultEntry is one bound-result cache slot: the materialized answers
// of a (skeleton, slot values) pair, stamped with the database epoch
// they are current as of, plus the retained fixpoint state they are read
// from, which absorbs deltas. The entry lock serializes
// concurrent queries of the same bound query, so a burst of identical
// queries evaluates once.
type resultEntry struct {
	key string

	mu    sync.Mutex
	gen   uint64
	stamp uint64
	rel   *storage.Relation
	stats eval.EvalStats
	inc   *eval.Incremental
	// rendered is what a hit answers with: rel and the hit's Explain as
	// bytes, built under mu by the first hit since rel last moved and nil
	// until then. It shares the stamp's validity, so whatever moves rel —
	// setAnswers, a maintenance pass — drops it.
	rendered *rendering
}

// setAnswers replaces the entry's retained evaluation and the answer set
// read from it (nil poisons the entry), and drops the rendering of the
// one it had. The caller holds entry.mu.
func (entry *resultEntry) setAnswers(inc *eval.Incremental) {
	entry.inc, entry.rel, entry.stats = inc, nil, eval.EvalStats{}
	if inc != nil {
		entry.rel, entry.stats = inc.Answers(), inc.Stats()
	}
	entry.rendered = nil
}

// Rendered is a query's response in the form a serving layer writes. A
// bound-result cache hit's is rendered once per answer set and shared by
// every later hit until the answers move: callers must not modify Answers.
type Rendered struct {
	// Answers is the answer set as JSON — an array of rows in Sorted
	// order, each an array of constant names: the bytes encoding/json
	// produces for that [][]string ("[]" when there are no answers).
	Answers []byte
	// Count is the number of rows in Answers.
	Count int
	// Explain is the Rows' Explain().String().
	Explain string
}

// rendering is a resultEntry's Rendered beside the Explain its string
// was made from.
type rendering struct {
	Rendered
	explain Explain
}

// hit returns the rendering a hit of pq answers with, building the
// entry's on first use. The plan-cache state is the request's, not the
// entry's: a request that reached the plan another way gets a private
// copy with its own explanation over the shared answers. The caller holds
// entry.mu.
func (entry *resultEntry) hit(pq *PreparedQuery) *rendering {
	r := entry.rendered
	if r == nil {
		r = &rendering{explain: pq.explainWithStats(entry.stats)}
		r.explain.ResultCache = "hit"
		r.Explain = r.explain.String()
		r.Answers, r.Count = renderAnswers(entry.rel, pq.engine.db.Syms)
		entry.rendered = r
	}
	if r.explain.PlanCache != pq.cache {
		own := *r
		own.explain.PlanCache = pq.cache
		own.Explain = own.explain.String()
		return &own
	}
	return r
}

// renderAnswers marshals rel's tuples, sorted and with names resolved.
func renderAnswers(rel *storage.Relation, syms *storage.SymbolTable) ([]byte, int) {
	tuples := rel.SortedTuples()
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		rows[i] = Row{tuple: t, syms: syms}.Strings()
	}
	b, _ := json.Marshal(rows) // strings cannot fail to marshal
	return b, len(rows)
}

// resultKey builds the bound-result cache key: the skeleton key plus the
// length-prefixed slot constants (length-prefixing keeps adversarial
// constant names from colliding).
func resultKey(skelKey string, consts []ast.Term) string {
	var b strings.Builder
	b.WriteString(skelKey)
	for _, c := range consts {
		b.WriteByte(0)
		b.WriteString(strconv.Itoa(len(c.Name)))
		b.WriteByte(':')
		b.WriteString(c.Name)
	}
	return b.String()
}

// currentGen reads the program generation.
func (e *Engine) currentGen() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// resultEntryFor returns the cache entry for key, creating (and LRU-
// bounding) it when absent.
func (e *Engine) resultEntryFor(key string, gen uint64) *resultEntry {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if el, ok := e.resCache[key]; ok {
		e.resLRU.MoveToFront(el)
		return el.Value.(*resultEntry)
	}
	entry := &resultEntry{key: key, gen: gen}
	e.resCache[key] = e.resLRU.PushFront(entry)
	for e.resLRU.Len() > e.resCacheCap {
		oldest := e.resLRU.Back()
		evicted := e.resLRU.Remove(oldest).(*resultEntry)
		delete(e.resCache, evicted.key)
	}
	return entry
}

// collectDelta gathers, for each of the given predicates whose relation
// was modified at or after stamp, its signed (netted) DeltaSince as an
// eval.Delta: the inserts as the window DeltaSince returns over the base
// relation's own rows, nothing copied, and the retractions as a relation
// of their own, which DRed probes by key (their rows are tombstoned, and
// may have left the base directories). The windows are sound only under
// the retraction hold the caller keeps until the pass that reads them
// ends. ok is false when one of those relations' delta tail was evicted
// and the caller must fall back to a full re-evaluation; relations the
// maintained program never reads are not consulted.
func (e *Engine) collectDelta(preds []string, stamp uint64) (d eval.Delta, ok bool) {
	for _, pred := range preds {
		r := e.db.Relation(pred)
		if r == nil || r.LastModified() < stamp {
			continue
		}
		sd, ok := r.DeltaSince(stamp)
		if !ok {
			return eval.Delta{}, false
		}
		if sd.Added != nil {
			if d.Add == nil {
				d.Add = make(map[string]*storage.Relation)
			}
			d.Add[pred] = sd.Added
		}
		if len(sd.Removed) > 0 {
			if d.Del == nil {
				d.Del = make(map[string]*storage.Relation)
			}
			d.Del[pred] = storage.NewRelation(r.Arity(), nil)
			d.Del[pred].InsertBatch(sd.Removed)
		}
	}
	return d, true
}

// maintain brings entry's retained state up to date: it reads the epoch
// the entry will be current as of, collects the signed delta since the
// entry's stamp and applies it. No retraction may land between collecting
// the delta and the end of the pass that applies it — DRed reconstructs
// the old state from it, and the insert windows read the base relations'
// rows in place — so both happen under one Database.HoldRetractions,
// released however the pass ends (a pass that panics under a recovering
// caller must not leave writers waiting).
// changed reports a non-empty delta; ok is false when a delta tail was
// evicted. The caller holds entry.mu.
func (e *Engine) maintain(ctx context.Context, entry *resultEntry) (newStamp uint64, changed, ok bool, err error) {
	defer e.db.HoldRetractions()()
	newStamp = e.db.Epoch()
	delta, ok := e.collectDelta(entry.inc.Reads(), entry.stamp)
	if changed = ok && !delta.Empty(); changed {
		entry.rendered = nil
		err = entry.inc.Update(ctx, delta)
	}
	return newStamp, changed, ok, err
}

// queryCached serves a prepared query through the bound-result cache.
// handled is false when the cache stood aside (stale plan generation) —
// the caller then evaluates directly. The protocol that keeps stamps
// sound under concurrent inserts: the new stamp is read from the epoch
// counter BEFORE any relation is read, so an insert the evaluation
// missed is stamped at or after it and DeltaSince(stamp) replays it.
func (e *Engine) queryCached(ctx context.Context, pq *PreparedQuery) (rows *Rows, handled bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, true, err
	}
	db := e.db
	curGen := e.currentGen()
	if pq.gen != curGen {
		return nil, false, nil
	}
	entry := e.resultEntryFor(resultKey(pq.skeleton.key, pq.consts), curGen)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if e.currentGen() != curGen {
		// The program changed while we waited; this entry is orphaned
		// (LoadProgram cleared the cache). Evaluate outside it.
		return nil, false, nil
	}
	before := db.Stats.Snapshot()
	mode := ""
	if entry.rel != nil && entry.gen == curGen {
		if db.LastModified() < entry.stamp {
			e.resHits.Add(1)
			mode = "hit"
		} else {
			newStamp, changed, ok, uerr := e.maintain(ctx, entry)
			switch {
			case uerr != nil:
				// A failed Update (a mid-pass cancellation or an exhausted
				// gas budget) leaves the retained fixpoint half-moved, so
				// replaying the delta would silently skip answers. Poison
				// the entry: the next query rebuilds from scratch.
				entry.setAnswers(nil)
				return nil, true, uerr
			case !ok:
				// A delta tail was evicted: rebuild below.
			case !changed:
				// Mutations happened, but none the maintained program
				// reads, or they netted out — nothing to apply.
				entry.stamp = newStamp
				e.resHits.Add(1)
				mode = "hit"
			default:
				entry.stamp = newStamp
				refixes := entry.stats.Refixes
				entry.stats = entry.inc.Stats()
				if entry.stats.Refixes > refixes {
					e.resRefixed.Add(1)
				}
				e.resUpdated.Add(1)
				mode = "updated"
			}
		}
	}
	if mode == "" {
		plan, berr := pq.plan()
		if berr != nil {
			return nil, true, berr
		}
		newStamp := db.Epoch()
		inc, berr := plan.Build(ctx, db)
		if berr != nil {
			return nil, true, berr
		}
		entry.setAnswers(inc)
		entry.gen = curGen
		entry.stamp = newStamp
		e.resRebuilt.Add(1)
		mode = "rebuilt"
	}
	rows = &Rows{
		rel:      entry.rel,
		syms:     db.Syms,
		stats:    entry.stats,
		counters: db.Stats.Snapshot().Sub(before),
	}
	if mode == "hit" {
		rows.rendered = entry.hit(pq)
		rows.explain = rows.rendered.explain
	} else {
		rows.explain = pq.explainWithStats(entry.stats)
		rows.explain.ResultCache = mode
	}
	return rows, true, nil
}

// Stream starts evaluating the prepared plan in a background goroutine
// and returns immediately with a streaming Rows: All yields each answer
// as it is derived — for one-sided context plans that means first
// answers arrive while the Fig. 9 fixpoint is still running — and the
// remaining accessors (Len, Strings, Stats, Counters, Explain, Err)
// block until the evaluation finishes. Plans that cannot stream fall
// back to evaluating fully and then streaming the materialized answers. Breaking out of All stops the evaluation early;
// check Err for the terminal status.
func (pq *PreparedQuery) Stream(ctx context.Context) *Rows {
	if ctx == nil {
		ctx = context.Background()
	}
	if pq.unseenConst() {
		return pq.noAnswers()
	}
	ctx = pq.engine.withGasCtx(ctx)
	ctx, cancel := context.WithCancel(ctx)
	db := pq.engine.db
	rows := &Rows{
		syms:   db.Syms,
		ch:     make(chan Row),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	before := db.Stats.Snapshot()
	var stopped atomic.Bool
	rows.stop = func() { stopped.Store(true); cancel() }
	emit := func(t storage.Tuple) bool {
		if stopped.Load() {
			return false
		}
		select {
		case rows.ch <- Row{tuple: t.Clone(), syms: db.Syms}:
			// The unbuffered send marks the consumer runnable but does not
			// preempt this goroutine; with GOMAXPROCS=1 the evaluation
			// would otherwise keep the only P until async preemption
			// (~10ms), stalling time-to-first-answer. Yield so the
			// consumer observes the answer now.
			runtime.Gosched()
			return true
		case <-ctx.Done():
			return false
		}
	}
	go func() {
		defer close(rows.done)
		defer close(rows.ch)
		var rel *storage.Relation
		var stats eval.EvalStats
		plan, err := pq.plan()
		switch sp, streams := plan.(eval.StreamingPrepared); {
		case err != nil:
			// Nothing to evaluate: the stream ends with the bind error.
		case streams:
			rel, stats, err = sp.EvalStream(ctx, db, emit)
		default:
			rel, stats, err = eval.Eval(ctx, plan, db)
			if err == nil {
				for _, t := range rel.Tuples() {
					if !emit(t) {
						// A ctx-driven stop is a cancellation; a consumer
						// break is cleared by the stopped check below.
						if cerr := ctx.Err(); cerr != nil {
							err = cerr
						}
						break
					}
				}
			}
		}
		if stopped.Load() {
			// The consumer broke out of All; report a clean early stop.
			err = nil
		}
		if rel == nil {
			rel = storage.NewRelation(pq.query.Arity(), nil)
		}
		rows.rel = rel
		rows.stats = stats
		rows.err = err
		rows.counters = db.Stats.Snapshot().Sub(before)
		rows.explain = pq.explainWithStats(stats)
	}()
	return rows
}

// Query plans (with plan-cache reuse) and evaluates a query given in
// Prolog syntax, e.g. "t(paris, Y)". The engine auto-selects the best
// strategy: the one-sided plan when Theorem 3.4 says the recursion is
// (convertible to) one-sided, the general fallback otherwise.
func (e *Engine) Query(ctx context.Context, query string) (*Rows, error) {
	q, err := parser.ParseAtom(query)
	if err != nil {
		return nil, err
	}
	return e.QueryAtom(ctx, q)
}

// QueryAtom is Query for an already-parsed atom.
func (e *Engine) QueryAtom(ctx context.Context, query Atom) (*Rows, error) {
	pq, err := e.Prepare(nil, query)
	if err != nil {
		return nil, err
	}
	return pq.Query(ctx)
}

// QueryStream plans a query (with plan-cache reuse) and evaluates it in
// the background, returning a streaming Rows whose All yields answers as
// they are derived — before the fixpoint completes when the strategy
// supports it. See PreparedQuery.Stream for the full semantics.
func (e *Engine) QueryStream(ctx context.Context, query string) (*Rows, error) {
	q, err := parser.ParseAtom(query)
	if err != nil {
		return nil, err
	}
	pq, err := e.Prepare(nil, q)
	if err != nil {
		return nil, err
	}
	return pq.Stream(ctx), nil
}

// QueryBatch plans and evaluates several queries (Prolog syntax),
// returning one Rows per query in input order. One gas budget governs
// the whole batch; each member is answered as a single Query is, through
// the plan cache and the bound-result cache. The first error ends the
// batch.
func (e *Engine) QueryBatch(ctx context.Context, queries []string) ([]*Rows, error) {
	atoms := make([]Atom, len(queries))
	for i, s := range queries {
		q, err := parser.ParseAtom(s)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		atoms[i] = q
	}
	return e.QueryBatchAtoms(ctx, atoms)
}

// QueryBatchAtoms is QueryBatch for already-parsed atoms.
func (e *Engine) QueryBatchAtoms(ctx context.Context, queries []Atom) ([]*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = e.withGasCtx(ctx)
	rows := make([]*Rows, len(queries))
	for i, q := range queries {
		r, err := e.QueryAtom(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("query %v: %w", q, err)
		}
		rows[i] = r
	}
	return rows, nil
}

// Checkpoint compacts the persistence log: it seals the active segment,
// writes a snapshot of the full engine state — symbol table, every
// relation's tuples, the program's rules, and the plan cache's query
// shapes — and deletes the log prefix the snapshot covers. Recovery
// cost after a checkpoint is the snapshot plus whatever tail accumulated
// since. On an engine opened without WithPersistence it is a no-op.
// Checkpoint is safe to call concurrently with queries and inserts:
// mutations racing the snapshot are also journaled in the fresh segment
// and replay idempotently.
func (e *Engine) Checkpoint() error {
	lg := e.log.Load()
	if lg == nil {
		return nil
	}
	err := lg.Checkpoint(func() (*wal.Snapshot, error) {
		prog := e.Program()
		rules := make([]string, len(prog.Rules))
		for i, r := range prog.Rules {
			rules[i] = parser.RenderRule(r)
		}
		return wal.CollectDatabase(e.db, rules, e.cacheShapes()), nil
	})
	if err == nil {
		e.ckptMark.Store(e.db.Mutations())
	}
	return err
}

// maybeAutoCheckpoint checkpoints when the accepted-insert count since
// the last checkpoint crossed the WithAutoCheckpoint threshold. The CAS
// on the mark makes exactly one of several racing mutators perform the
// checkpoint; its first failure is latched for Close to surface.
func (e *Engine) maybeAutoCheckpoint() {
	if e.log.Load() == nil || e.autoEvery <= 0 {
		return
	}
	cur := e.db.Mutations()
	last := e.ckptMark.Load()
	if cur-last < int64(e.autoEvery) {
		return
	}
	if !e.ckptMark.CompareAndSwap(last, cur) {
		return
	}
	if err := e.Checkpoint(); err != nil {
		werr := fmt.Errorf("onesided: auto-checkpoint: %w", err)
		e.autoErr.CompareAndSwap(nil, &werr)
	}
}

// Close runs the registered OnClose hooks (newest first), then flushes
// and closes the persistence log. It does not checkpoint; call
// Checkpoint first for a compact restart. Facts inserted after Close
// are not journaled. On an engine without persistence or hooks it is a
// no-op (and always succeeds). Close also surfaces the first latched
// auto-checkpoint failure, if any. Close is idempotent: hooks run once.
func (e *Engine) Close() error {
	e.closersMu.Lock()
	closers := e.closers
	e.closers = nil
	e.closersMu.Unlock()
	var err error
	for i := len(closers) - 1; i >= 0; i-- {
		if cerr := closers[i](); cerr != nil && err == nil {
			err = cerr
		}
	}
	lg := e.log.Load()
	if lg == nil {
		return err
	}
	e.db.SetJournal(nil)
	if cerr := lg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		if p := e.autoErr.Load(); p != nil {
			err = *p
		}
	}
	return err
}

// OnClose registers a hook Close will run — before the persistence log
// is closed, newest registration first. A replication follower uses it
// to bind its tail goroutine's lifetime to the engine: Close must not
// return while an applier is still writing.
func (e *Engine) OnClose(fn func() error) {
	e.closersMu.Lock()
	e.closers = append(e.closers, fn)
	e.closersMu.Unlock()
}

// Log returns the engine's write-ahead log, or nil when the engine has
// no persistence attached (opened without WithPersistence and not yet
// promoted).
func (e *Engine) Log() *wal.Log { return e.log.Load() }

// SetReadOnly switches the engine's write gate: while set, InsertFact
// fails with ErrReadOnly. Followers run read-only so every mutation
// arrives through the replication stream; promotion clears it.
func (e *Engine) SetReadOnly(ro bool) { e.readOnly.Store(ro) }

// ReadOnly reports whether the engine currently rejects writes.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// AttachPersistence opens a write-ahead log over dir and attaches it as
// the database's journal — without replaying anything: dir's on-disk
// state must already equal the engine's in-memory state. This is the
// follower promotion path: every record in the local mirror was applied
// as it streamed in, so the mirror IS the engine's durable history, and
// the fresh active segment wal.Open creates simply continues it. Facts
// inserted from here on are journaled; Checkpoint compacts as usual.
func (e *Engine) AttachPersistence(dir string, policy wal.SyncPolicy) error {
	lg, err := wal.Open(dir, policy, wal.Replay{})
	if err != nil {
		return err
	}
	if !e.log.CompareAndSwap(nil, lg) {
		lg.Close()
		return fmt.Errorf("onesided: persistence already attached")
	}
	e.ckptMark.Store(e.db.Mutations())
	e.db.SetJournal(lg)
	return nil
}

// cacheShapes renders the plan cache's resident skeletons as
// representative ground queries, least-recently-used first, so a
// rewarming engine reconstructs both the entries and their LRU order.
func (e *Engine) cacheShapes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	shapes := make([]string, 0, e.lru.Len())
	for el := e.lru.Back(); el != nil; el = el.Prev() {
		shapes = append(shapes, representativeQuery(el.Value.(*planSkeleton)))
	}
	return shapes
}

// representativeQuery renders a ground query whose Skeletonize
// reproduces ps's shape: slot i becomes the constant "s<i>", canonical
// variables stay. Planning depends only on the shape, so any constants
// do for recompilation.
func representativeQuery(ps *planSkeleton) string {
	a := ps.adorned.Atom.Clone()
	for i, t := range a.Args {
		if s, ok := ast.SlotIndex(t); ok {
			a.Args[i] = ast.C("s" + strconv.Itoa(s))
		}
	}
	return parser.RenderAtom(a)
}

// rewarmShapes recompiles persisted query shapes into the plan cache so
// a reopened engine serves its hot shapes without a cold Prepare. Shapes
// that no longer compile (the program changed under them) are skipped;
// rewarming counts in CacheStats.Rewarmed, not Misses.
func (e *Engine) rewarmShapes(shapes []string) {
	if e.cacheCap <= 0 {
		return
	}
	for _, qs := range shapes {
		q, err := parser.ParseAtom(qs)
		if err != nil {
			continue
		}
		skel := ast.Skeletonize(q)
		e.mu.Lock()
		program := e.program
		gen := e.gen
		_, cached := e.cache[skel.Key()]
		e.mu.Unlock()
		if cached {
			continue
		}
		ps, err := e.compileSkeleton(program, skel, q)
		if err != nil {
			continue
		}
		e.mu.Lock()
		if e.gen == gen {
			if e.cacheInsertLocked(ps) == ps {
				e.rewarmed.Add(1)
			}
		}
		e.mu.Unlock()
	}
}

// ResultCacheStats reports the bound-result cache's effectiveness:
// Hits served materialized answers still current at the database epoch,
// Updated moved a retained fixpoint by just the signed delta, Rebuilt
// evaluated in full (first build, LRU eviction, an overflowed delta
// tail, or a maintenance pass cut short by cancellation or gas). Refixed
// counts the Updated passes that overran their round budget and re-ran
// the Fig. 9 loop instead. Entries counts the resident answer sets.
type ResultCacheStats struct {
	Hits, Updated, Rebuilt, Refixed int64
	Entries                         int
}

func (rs ResultCacheStats) String() string {
	s := fmt.Sprintf("hits=%d updated=%d rebuilt=%d entries=%d",
		rs.Hits, rs.Updated, rs.Rebuilt, rs.Entries)
	if rs.Refixed > 0 {
		s += fmt.Sprintf(" refixed=%d", rs.Refixed)
	}
	return s
}

// CacheStats reports the plan cache's effectiveness: hits and misses
// since Open, entries evicted by the LRU bound, skeletons rewarmed from
// a persistence snapshot at Open, and the entries currently resident.
// Results covers the bound-result cache (materialized answers).
type CacheStats struct {
	Hits, Misses, Evictions, Rewarmed int64
	Entries                           int
	Results                           ResultCacheStats
}

func (cs CacheStats) String() string {
	s := fmt.Sprintf("hits=%d misses=%d evictions=%d entries=%d",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries)
	if cs.Rewarmed > 0 {
		s += fmt.Sprintf(" rewarmed=%d", cs.Rewarmed)
	}
	r := cs.Results
	if r.Hits+r.Updated+r.Rebuilt > 0 || r.Entries > 0 {
		s += " results[" + r.String() + "]"
	}
	return s
}

// CacheStats returns a snapshot of the plan cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	e.resMu.Lock()
	resEntries := len(e.resCache)
	e.resMu.Unlock()
	return CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
		Rewarmed:  e.rewarmed.Load(),
		Entries:   entries,
		Results: ResultCacheStats{
			Hits:    e.resHits.Load(),
			Updated: e.resUpdated.Load(),
			Rebuilt: e.resRebuilt.Load(),
			Refixed: e.resRefixed.Load(),
			Entries: resEntries,
		},
	}
}
