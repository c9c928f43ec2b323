package storage

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// tupleSet renders tuples as a set of keys for comparison.
func tupleSet(ts []Tuple) map[tupleKey]bool {
	out := make(map[tupleKey]bool, len(ts))
	for _, t := range ts {
		out[tkey(t)] = true
	}
	return out
}

// TestEpochStampingAndDeltaSince: inserts into a tracked database are
// stamped with consecutive epochs, and DeltaSince returns exactly the
// tuples at or above a stamp.
func TestEpochStampingAndDeltaSince(t *testing.T) {
	db := NewDatabase()
	if db.Epoch() != 0 || db.LastModified() != 0 || db.Mutations() != 0 {
		t.Fatalf("fresh database not at epoch zero: %d/%d/%d", db.Epoch(), db.LastModified(), db.Mutations())
	}
	db.AddFact("e", "a", "b")
	db.AddFact("e", "b", "c")
	if db.Epoch() != 2 || db.LastModified() != 1 || db.Mutations() != 2 {
		t.Fatalf("after two inserts: epoch=%d lastMod=%d mutations=%d", db.Epoch(), db.LastModified(), db.Mutations())
	}
	// A duplicate insert is not accepted: no epoch movement.
	db.AddFact("e", "a", "b")
	if db.Epoch() != 2 || db.Mutations() != 2 {
		t.Fatalf("duplicate insert moved the epoch: epoch=%d mutations=%d", db.Epoch(), db.Mutations())
	}
	stamp := db.Epoch() // everything below is already visible
	db.AddFact("e", "c", "d")
	r := db.Relation("e")
	if r.LastModified() != 2 {
		t.Fatalf("relation lastModified = %d, want 2", r.LastModified())
	}
	delta, ok := r.DeltaSince(stamp)
	if !ok {
		t.Fatal("DeltaSince fell back to full for a live tail")
	}
	if len(delta.Added) != 1 || tkey(delta.Added[0]) != tkey(Tuple{db.Syms.Intern("c"), db.Syms.Intern("d")}) {
		t.Fatalf("delta = %v, want exactly the (c,d) insert", delta.Added)
	}
	if len(delta.Removed) != 0 {
		t.Fatalf("insert-only delta carries removals: %v", delta.Removed)
	}
	// Nothing newer than the current epoch.
	if d, ok := r.DeltaSince(db.Epoch()); !ok || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("DeltaSince(current) = %v/%v, want empty/ok", d, ok)
	}
	// Epoch 0 covers the whole history while the tail is intact.
	if d, ok := r.DeltaSince(0); !ok || len(d.Added) != 3 {
		t.Fatalf("DeltaSince(0) = %d tuples/%v, want 3/ok", len(d.Added), ok)
	}
}

// TestDeltaSinceUntracked: free-standing relations and derived databases
// report the full fallback.
func TestDeltaSinceUntracked(t *testing.T) {
	r := NewRelation(2, nil)
	r.Insert(Tuple{1, 2})
	if _, ok := r.DeltaSince(0); ok {
		t.Fatal("free-standing relation claimed delta tracking")
	}
	derived := NewDatabaseWith(NewSymbolTable())
	derived.AddFact("p", "x")
	if derived.Epoch() != 0 || derived.Mutations() != 0 {
		t.Fatal("derived database tracked epochs")
	}
	if _, ok := derived.Relation("p").DeltaSince(0); ok {
		t.Fatal("derived relation claimed delta tracking")
	}
}

// TestDeltaTailEviction: overflowing the per-shard tail advances the
// floor, and a request below it reports the full fallback while newer
// stamps still answer exactly.
func TestDeltaTailEviction(t *testing.T) {
	db := NewDatabase()
	db.SetShards(1)
	n := deltaTailBound + deltaTailBound/2
	for i := 0; i < n; i++ {
		db.AddFact("e", fmt.Sprintf("x%d", i), "y")
	}
	r := db.Relation("e")
	if _, ok := r.DeltaSince(0); ok {
		t.Fatalf("DeltaSince(0) should have fallen back after %d inserts over a %d-entry tail", n, deltaTailBound)
	}
	// The most recent inserts are still covered.
	stamp := uint64(n - 10)
	delta, ok := r.DeltaSince(stamp)
	if !ok {
		t.Fatalf("DeltaSince(%d) fell back; floor too aggressive", stamp)
	}
	if len(delta.Added) != 10 {
		t.Fatalf("recent delta has %d tuples, want 10", len(delta.Added))
	}
}

// TestDeltaSinceSharded: deltas assemble across shards and contain
// exactly the post-stamp inserts.
func TestDeltaSinceSharded(t *testing.T) {
	db := NewDatabase()
	db.SetShards(8)
	for i := 0; i < 100; i++ {
		db.AddFact("e", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	stamp := db.Epoch()
	var want []Tuple
	for i := 0; i < 50; i++ {
		x, y := fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i)
		db.AddFact("e", x, y)
		want = append(want, Tuple{db.Syms.Intern(x), db.Syms.Intern(y)})
	}
	delta, ok := db.Relation("e").DeltaSince(stamp)
	if !ok {
		t.Fatal("sharded DeltaSince fell back")
	}
	got, wantSet := tupleSet(delta.Added), tupleSet(want)
	if len(got) != len(wantSet) {
		t.Fatalf("delta has %d distinct tuples, want %d", len(got), len(wantSet))
	}
	for k := range wantSet {
		if !got[k] {
			t.Fatal("delta is missing an accepted insert")
		}
	}
}

// TestDeltaConcurrentInserts: the -race check for the tail bookkeeping —
// parallel writers insert while a reader repeatedly takes deltas; every
// delta must be a subset of the relation and the final delta from the
// initial stamp must cover everything (tail large enough here).
func TestDeltaConcurrentInserts(t *testing.T) {
	db := NewDatabase()
	db.SetShards(4)
	db.Ensure("e", 2)
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				db.AddFact("e", fmt.Sprintf("w%d_%d", w, i), "t")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if delta, ok := db.Relation("e").DeltaSince(0); ok {
				r := db.Relation("e")
				for _, tup := range delta.Added {
					if !r.Contains(tup) {
						t.Error("delta tuple not in relation")
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	<-done
	delta, ok := db.Relation("e").DeltaSince(0)
	if !ok {
		t.Fatal("final DeltaSince fell back (tail should hold all inserts)")
	}
	if len(delta.Added) != writers*each {
		t.Fatalf("final delta has %d tuples, want %d", len(delta.Added), writers*each)
	}
}

// TestDeltaStampProtocolConcurrentWriters drives the reader protocol
// every maintained consumer follows — read the epoch, then for each
// relation skip it when LastModified is below the consumer's stamp,
// otherwise fold DeltaSince(stamp) in, then adopt the epoch read first as
// the new stamp — against writers inserting and retracting across
// several relations. No mutation may fall between two stamps: once the
// writers stop, one more round leaves every mirror equal to its relation.
// A writer that lets the epoch leave a mutation's stamp before the
// relation's watermark shows it loses that mutation to a reader whose
// round falls in between.
func TestDeltaStampProtocolConcurrentWriters(t *testing.T) {
	db := NewDatabase()
	db.SetShards(4)
	preds := []string{"p0", "p1", "p2"}
	for _, p := range preds {
		db.Ensure(p, 2)
	}
	const writers, each = 4, 1500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every tuple is inserted once and two thirds of them retracted
			// once, a few steps later: no later write papers over a lost one.
			tup := func(i int) (*Relation, Tuple) {
				x := db.Syms.Intern(fmt.Sprintf("w%d_%d", w, i))
				return db.Relation(preds[(i+w)%len(preds)]), Tuple{x, x}
			}
			for i := 0; i < each; i++ {
				r, t := tup(i)
				r.Insert(t)
				if i >= 5 && i%3 != 0 {
					r, t = tup(i - 5)
					r.Retract(t)
				}
			}
		}(w)
	}
	type mirror struct {
		stamp uint64
		sets  map[string]map[tupleKey]bool
	}
	round := func(m *mirror) {
		next := db.Epoch()
		for _, p := range preds {
			r := db.Relation(p)
			if r.LastModified() < m.stamp {
				continue
			}
			d, ok := r.DeltaSince(m.stamp)
			if !ok {
				m.sets[p] = tupleSet(r.Tuples())
				continue
			}
			for _, tup := range d.Removed {
				delete(m.sets[p], tkey(tup))
			}
			for _, tup := range d.Added {
				m.sets[p][tkey(tup)] = true
			}
		}
		m.stamp = next
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	mirrors := make([]*mirror, 2)
	for i := range mirrors {
		m := &mirror{sets: map[string]map[tupleKey]bool{}}
		for _, p := range preds {
			m.sets[p] = map[tupleKey]bool{}
		}
		mirrors[i] = m
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					round(m)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i, m := range mirrors {
		round(m)
		for _, p := range preds {
			want := tupleSet(db.Relation(p).Tuples())
			if len(m.sets[p]) != len(want) {
				t.Fatalf("mirror %d of %s holds %d tuples, relation %d", i, p, len(m.sets[p]), len(want))
			}
			for k := range want {
				if !m.sets[p][k] {
					t.Fatalf("mirror %d of %s is missing a live tuple", i, p)
				}
			}
		}
	}
}

// runLog is the test journal: it records every journaled run as
// replayable per-tuple records (constant names, so they apply to a
// database that interned in another order), the way the write-ahead log
// frames one record per accepted tuple.
type runLog struct {
	syms  *SymbolTable
	recs  []logRec
	calls int // JournalRuns calls: one per commit that accepted anything
}

type logRec struct {
	del    bool
	pred   string
	consts []string
}

func (l *runLog) JournalSym(string) {}

func (l *runLog) JournalRuns(runs []JournalRun) {
	l.calls++
	for _, run := range runs {
		for _, t := range run.Tuples {
			consts := make([]string, len(t))
			for i, v := range t {
				consts[i] = l.syms.Name(v)
			}
			l.recs = append(l.recs, logRec{run.Del, run.Pred, consts})
		}
	}
}

// TestReplayEpochEquivalence is the storage-level foundation of the
// replication contract: a primary that mutates through every entry point
// — single Insert and Retract, InsertBatch and RetractBatch with in-batch
// duplicates, re-delivered tuples and misses — journals one record per
// accepted mutation, and a replica applying those records one at a time
// (the only way a follower or a recovery ever applies them) holds the
// primary's epoch and a byte-identical Dump at every run boundary,
// regardless of symbol interning order. The epoch counts accepted
// mutations, for a run exactly as for single writes.
func TestReplayEpochEquivalence(t *testing.T) {
	a, b := NewDatabase(), NewDatabase()
	log := &runLog{syms: a.Syms}
	a.SetJournal(log)
	// b interns some symbols ahead of time in a different order — the
	// Value assignment may differ, but names and epochs must not.
	b.Syms.Intern("hub")
	b.Syms.Intern("n7")

	tuples := func(pairs ...[2]string) []Tuple {
		out := make([]Tuple, len(pairs))
		for i, p := range pairs {
			out[i] = Tuple{a.Syms.Intern(p[0]), a.Syms.Intern(p[1])}
		}
		return out
	}
	edge := func(i, j int) [2]string { return [2]string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j)} }
	a.Ensure("edge", 2)

	var accepted uint64
	boundary := func(step string, want int) {
		t.Helper()
		accepted += uint64(want)
		if len(log.recs) != want {
			t.Fatalf("%s: journaled %d records, want %d accepted mutations", step, len(log.recs), want)
		}
		for _, r := range log.recs {
			before := b.Epoch()
			if r.del {
				b.RemoveFact(r.pred, r.consts...)
			} else {
				b.AddFact(r.pred, r.consts...)
			}
			if b.Epoch() != before+1 {
				t.Fatalf("%s: replaying %+v moved the epoch %d -> %d", step, r, before, b.Epoch())
			}
		}
		log.recs = log.recs[:0]
		if a.Epoch() != accepted || b.Epoch() != accepted || a.Mutations() != int64(accepted) {
			t.Fatalf("%s: epochs primary=%d replica=%d mutations=%d, want %d accepted mutations",
				step, a.Epoch(), b.Epoch(), a.Mutations(), accepted)
		}
		if a.Dump() != b.Dump() {
			t.Fatalf("%s: dumps diverged (epoch %d)\na:\n%s\nb:\n%s", step, accepted, a.Dump(), b.Dump())
		}
	}

	for i := 0; i < 40; i++ {
		want := 0
		if a.AddFact("edge", edge(i, i+1)[0], edge(i, i+1)[1]) {
			want++
		}
		if i%3 == 0 && a.AddFact("label", fmt.Sprintf("n%d", i), "hub") {
			want++
		}
		if i%5 == 0 && i > 0 {
			// Duplicated delivery: a fact offered twice must not advance
			// the epoch the second time.
			if a.AddFact("edge", edge(i, i+1)[0], edge(i, i+1)[1]) {
				t.Fatalf("duplicate edge %d accepted", i)
			}
		}
		boundary(fmt.Sprintf("single inserts %d", i), want)
	}

	// A run with an in-batch duplicate and two tuples already present.
	rel := a.Relation("edge")
	if n := rel.InsertBatch(tuples(edge(100, 101), edge(3, 4), edge(101, 102), edge(100, 101), edge(7, 8), edge(102, 103))); n != 3 {
		t.Fatalf("InsertBatch accepted %d, want 3", n)
	}
	boundary("insert run", 3)

	if !a.RemoveFact("edge", "n5", "n6") || a.RemoveFact("edge", "n5", "n6") || a.RemoveFact("edge", "n5", "nowhere") {
		t.Fatal("single retracts: want present, then missing, then unknown constant")
	}
	boundary("single retract", 1)

	// A signed run with an in-batch duplicate, a tuple already retracted
	// and one never stored.
	if n := rel.RetractBatch(tuples(edge(100, 101), edge(5, 6), edge(10, 11), edge(100, 101), edge(200, 201), edge(11, 12))); n != 3 {
		t.Fatalf("RetractBatch removed %d, want 3", n)
	}
	boundary("retract run", 3)

	// Re-inserting retracted tuples is a fresh mutation each.
	if n := rel.InsertBatch(tuples(edge(5, 6), edge(10, 11))); n != 2 {
		t.Fatalf("re-insert run accepted %d, want 2", n)
	}
	boundary("re-insert run", 2)
	if rel.InsertBatch(tuples(edge(5, 6), edge(10, 11))) != 0 || rel.RetractBatch(tuples(edge(300, 301))) != 0 {
		t.Fatal("all-duplicate and all-missing runs must accept nothing")
	}
	boundary("no-op runs", 0)
}

// TestCommitIsOnePublication: a multi-run Commit applies its runs in
// order, ticks the epoch once per accepted mutation exactly as the same
// tuples committed one at a time would, and publishes once — one journal
// call carrying every run's accepted tuples in order, one watcher signal
// — while a commit that accepts nothing publishes nothing. Retraction
// runs wait for a maintenance pass's hold; insert-only commits do not.
func TestCommitIsOnePublication(t *testing.T) {
	a, b := NewDatabase(), NewDatabase()
	log := &runLog{syms: a.Syms}
	a.SetJournal(log)
	tup := func(names ...string) Tuple {
		t := make(Tuple, len(names))
		for i, n := range names {
			t[i] = a.Syms.Intern(n)
		}
		return t
	}
	edge, label := a.Ensure("edge", 2), a.Ensure("label", 1)
	edge.InsertBatch([]Tuple{tup("n0", "n1"), tup("n1", "n2")})
	label.Insert(tup("n0"))
	log.recs, log.calls = nil, 0
	before := a.Epoch()
	watch, cancel := a.Watch()
	defer cancel()

	added, removed := a.Commit(
		Run{Rel: edge, Tuples: []Tuple{tup("n2", "n3"), tup("n0", "n1") /* present */, tup("n3", "n4"), tup("n2", "n3") /* repeated */}},
		Run{Rel: label, Tuples: []Tuple{tup("n2")}},
		Run{Rel: a.Ensure("fresh", 0)}, // an empty run
		Run{Rel: edge, Del: true, Tuples: []Tuple{tup("n1", "n2"), tup("n9", "n9") /* missing */, tup("n2", "n3") /* inserted above */}},
		Run{Rel: label, Del: true, Tuples: []Tuple{tup("n0")}},
	)
	if added != 3 || removed != 3 {
		t.Fatalf("Commit accepted %d inserts and %d retractions, want 3 and 3", added, removed)
	}
	if got := a.Epoch() - before; got != 6 {
		t.Fatalf("the commit moved the epoch by %d, want one tick per accepted mutation (6)", got)
	}
	if log.calls != 1 {
		t.Fatalf("the commit made %d journal calls, want 1", log.calls)
	}
	var got []string
	for _, r := range log.recs {
		sign := "+"
		if r.del {
			sign = "-"
		}
		got = append(got, sign+r.pred+"("+strings.Join(r.consts, ",")+")")
	}
	if want := "+edge(n2,n3) +edge(n3,n4) +label(n2) -edge(n1,n2) -edge(n2,n3) -label(n0)"; strings.Join(got, " ") != want {
		t.Fatalf("journaled %v, want %s", got, want)
	}
	select {
	case <-watch:
	default:
		t.Fatal("the commit signalled no watcher")
	}
	select {
	case <-watch:
		t.Fatal("the commit signalled its watcher twice")
	default:
	}
	// Replayed record by record, the journal lands a replica on the same
	// state and epoch.
	for _, r := range []logRec{{false, "edge", []string{"n0", "n1"}}, {false, "edge", []string{"n1", "n2"}}, {false, "label", []string{"n0"}}} {
		b.AddFact(r.pred, r.consts...)
	}
	for _, r := range log.recs {
		if r.del {
			b.RemoveFact(r.pred, r.consts...)
		} else {
			b.AddFact(r.pred, r.consts...)
		}
	}
	b.Ensure("fresh", 0)
	if a.Dump() != b.Dump() || a.Epoch() != b.Epoch() {
		t.Fatalf("replica at epoch %d, primary at %d\nreplica:\n%s\nprimary:\n%s", b.Epoch(), a.Epoch(), b.Dump(), a.Dump())
	}

	// Accepting nothing publishes nothing.
	if added, removed := a.Commit(
		Run{Rel: edge, Tuples: []Tuple{tup("n0", "n1")}},
		Run{Rel: label, Del: true, Tuples: []Tuple{tup("n0")}},
	); added != 0 || removed != 0 || log.calls != 1 {
		t.Fatalf("a no-op commit accepted %d/%d and the journal saw %d calls, want 0/0 and still 1", added, removed, log.calls)
	}
	select {
	case <-watch:
		t.Fatal("a no-op commit signalled the watcher")
	default:
	}

	// The retraction gate: held by a pass, it stops a commit with a
	// retraction run — before any of its runs' retractions land — and
	// lets an insert-only commit through.
	release := a.HoldRetractions()
	if added, _ := a.Commit(Run{Rel: label, Tuples: []Tuple{tup("n5")}}); added != 1 {
		t.Fatal("an insert-only commit was not accepted under a retraction hold")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Commit(Run{Rel: label, Del: true, Tuples: []Tuple{tup("n5")}}, Run{Rel: edge, Del: true, Tuples: []Tuple{tup("n0", "n1")}})
	}()
	select {
	case <-done:
		t.Fatal("a commit with retraction runs finished under a retraction hold")
	case <-time.After(20 * time.Millisecond):
	}
	if !label.Contains(tup("n5")) || !edge.Contains(tup("n0", "n1")) {
		t.Fatal("a retraction landed under a retraction hold")
	}
	release()
	<-done
	if label.Contains(tup("n5")) || edge.Contains(tup("n0", "n1")) {
		t.Fatal("the held commit's retractions did not land after release")
	}

	// A run must name a relation of the database it is committed to.
	defer func() {
		if recover() == nil {
			t.Fatal("committing another database's relation did not panic")
		}
	}()
	a.Commit(Run{Rel: b.Ensure("edge", 2), Tuples: []Tuple{tup("n0", "n1")}})
}
