// Package eval implements the paper's evaluation algorithms and baselines:
// naive and semi-naive bottom-up evaluation, the Magic Sets transformation
// [BMSU86, BR87], the Counting method for the canonical recursion [BMSU86,
// SZ86] (Naive, CountingTC and Plan.EvalCounting are comparison baselines
// called directly, not served strategies), Sagiv's uniform-containment
// test [Sag88], and — the paper's
// contribution — the Fig. 9 schema for evaluating "column = constant"
// selections on one-sided recursions, whose instantiations reproduce the
// Fig. 7 (Aho–Ullman) and Fig. 8 (Henschen–Naqvi) algorithms.
//
// # One query, one goroutine
//
// Every evaluation — a cold Fig. 9 run, a semi-naive build, a
// maintenance pass — runs on the goroutine that asked
// for it; the cores are used by concurrent requests. (Levels and rounds
// were once split across a worker pool; on the two hardware threads any
// session has had the split never won and sometimes lost, and it was
// withdrawn — see README "Performance".) The Fig. 9 while loop advances
// the carry one level per iteration. The context-mode driver (contextEval)
// owns one level worker (level.go): slot arrays, conjunction scratch with
// the atoms' relations resolved, probe staging and the arena the next
// level is collected in are built once per evaluation and reused by every
// level, the carry is a flat arena rather than a slice of tuples, and the
// next level becomes the carry by a buffer swap, so a level allocates
// nothing. Newly discovered contexts are claimed through the seen-set,
// whose Offer admits each tuple exactly once. When f's or g's first atom
// is probed by one context value — every linear recursion's — a level
// goes in chunks of sixteen contexts whose probes go to storage together
// (storage.Relation.LookupKeys), and each row continues its context's
// solution at the second atom. A chunk of one context — every level of a
// chain — has nothing to stage and is one plain lookup
// (storage.Relation.LookupTally). When f is that atom alone, a
// row's columns are the successor: storage gathers them, for a chunk or a
// lone context (storage.Relation.GatherKeys), a unary carry's straight
// into the next level's arena, where the seen-set's bitset claims them in
// place — no callback per row, no row copied whole, no buffer between.
// A semi-naive round runs its (rule, variant) jobs one after the other,
// in rule order (runRound), so its Property-3 counts repeat exactly.
//
// Property 3's probe counts are kept like the scratch: an evaluation or
// maintenance pass counts the lookups of its conjunctions in one
// storage.Tally of its own (carried by conjScratch) and adds it into the
// database's Counters once, when it ends — however it ends. A probe
// therefore writes nothing another goroutine reads, and the Counters are
// exact between evaluations rather than during one.
//
// # Compiled conjunctions
//
// compileConj orders a body's atoms from the slots bound on entry and
// records per atom its probe plan: the bound arguments (keys), the first
// occurrences of the variables it binds (outs), their repeats inside the
// atom (eqs), and whether anything reads what it binds (existential: the
// first row decides). Boundness is static — every caller enters with
// exactly the bindings the order was fixed from, and an atom binds all of
// its variables — so the walk (compiledConj.step) keeps no bound flags
// and undoes nothing: it fills the keys, probes, and copies the outs.
//
// # Streaming
//
// Plan.EvalStreamCtx (surfaced through the StreamingPrepared interface)
// emits each distinct answer as soon as it is derived: the exit-rule
// depth-0 answers before the loop starts, then each batch's g-join
// answers while deeper levels are still being explored. This is what
// lets Engine.QueryStream yield first answers before the fixpoint
// completes.
//
// # Adornment-keyed skeletons
//
// Strategy.Prepare receives an AdornedQuery — possibly a canonical
// skeleton whose bound columns hold ast.SlotConst placeholders — and
// every prepared plan implements BindArgs, which instantiates the slot
// table with a shallow substitution (bind.go). One compiled skeleton
// per (program, predicate, adornment) therefore serves every ground
// query of the shape.
//
// # Incremental maintenance
//
// Every prepared plan builds a maintained evaluation
// (PreparedStrategy.Build), and there is one incremental machine
// (incremental.go): a plan is a Datalog program plus a watched answer
// predicate, its retained state that program's semi-naive fixpoint
// (snState), and snState.update — insert delta variants plus stratified
// DRed — the only routine that applies a signed Delta to a derived
// fixpoint. The semi-naive-backed plans build that state as their cold
// evaluation (Eval is Build with the state dropped). A context-mode
// plan keeps the Fig. 9 loop as its cold evaluator and renders itself
// as its context program (contextprog.go): the loop's seen-set and
// answers are that program's fixpoint, adopted by a fresh snState when
// the first delta arrives; a base-relation lookup does the same with a
// one-rule program.
//
// The two machines price a long move differently: a transition edge cut
// or spliced near the head of a long chain cascades one semi-naive round
// (≈2 µs) per level below it, where the loop walks a level for
// ≈0.1–0.2 µs. So a context-mode pass runs on a round budget,
// max(64, contexts/16) — the ski-rental rule, stop once the cascade has
// cost what starting over costs — and a pass that overruns it stops and
// refixes: Incremental.refix re-runs the loop over the current database
// (its operators compiled once per entry, on the first refix) and moves
// the live answers and the two derived relations to what the loop
// reached by their differences. EvalStats.Refixes counts those passes.
//
// Within its budget, a maintenance pass costs probes in proportion to
// the delta and the tuples it moves — Property 3 applied to maintenance.
// Three things keep it so. DRed's pre-deletion state is read, not built:
// a traversal of retractPass binds each non-delta atom to its live
// relation and to the tuples that left it (compiledConj.bindLeft) and
// probes the two in turn. A delta variant is entered from its Δ atom
// outward, and the part of a body no binding reaches is opened through
// its derived atom — the magic or context relation carrying the query's
// binding — so the base relation beside it is probed, never scanned
// (compileConj). And a pass owns its scratch: delta, candidate and
// round-delete relations come from a free list that lives from the start
// of initialFixpoint or update to its end and are emptied in place
// between rounds (storage.Relation.Reset), so a one-tuple round
// allocates nothing and a state at rest retains nothing.
// EvalStats.Overdeleted and Rederived report DRed's share of the work.
package eval
