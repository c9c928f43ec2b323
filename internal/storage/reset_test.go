package storage

import "testing"

// lookupCol returns the tuples whose column col holds v, through the
// posting-list path.
func lookupCol(r *Relation, col int, v Value) []Tuple {
	var out []Tuple
	r.Lookup([]Binding{{Col: col, Val: v}}, func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// TestResetBehavesLikeNew: a relation that was filled, indexed, partly
// retracted and then Reset answers every question the way a fresh one
// does, and goes through the same life again.
func TestResetBehavesLikeNew(t *testing.T) {
	var stats Counters
	r := NewRelation(2, &stats)
	for round := 0; round < 3; round++ {
		base := Value(100 * round)
		for i := Value(0); i < 10; i++ {
			if !r.Insert(Tuple{base + i, base + i%3}) {
				t.Fatalf("round %d: tuple %d rejected as a duplicate", round, i)
			}
		}
		if r.Insert(Tuple{base, base}) {
			t.Fatalf("round %d: duplicate accepted", round)
		}
		// An indexed lookup on the second column: the posting list
		// is built from this round's rows only.
		if got := lookupCol(r, 1, base+1); len(got) != 3 {
			t.Fatalf("round %d: lookup on column 1 found %v, want 3 rows", round, got)
		}
		if round > 0 {
			old := base - 100
			if r.Contains(Tuple{old, old}) || len(lookupCol(r, 1, old+1)) != 0 || len(lookupCol(r, 0, old)) != 0 {
				t.Fatalf("round %d: a tuple of the previous round survived Reset", round)
			}
		}
		if !r.Retract(Tuple{base + 4, base + 1}) || r.Retract(Tuple{base + 4, base + 1}) {
			t.Fatalf("round %d: retract of a live tuple / a dead one misreported", round)
		}
		if got := lookupCol(r, 1, base+1); len(got) != 2 {
			t.Fatalf("round %d: lookup after the retract found %v, want 2 rows", round, got)
		}
		if r.Len() != 9 || len(r.Tuples()) != 9 || r.tombs.Load() != 1 || r.Retracts() != 1 {
			t.Fatalf("round %d: len=%d tuples=%d tombstones=%d retracts=%d, want 9/9/1/1",
				round, r.Len(), len(r.Tuples()), r.tombs.Load(), r.Retracts())
		}
		// Re-inserting the retracted tuple appends a fresh row.
		if !r.Insert(Tuple{base + 4, base + 1}) || r.Len() != 10 {
			t.Fatalf("round %d: re-insert after retract failed", round)
		}

		r.Reset()
		if r.Len() != 0 || len(r.Tuples()) != 0 || r.tombs.Load() != 0 || r.Retracts() != 0 {
			t.Fatalf("round %d: after Reset len=%d tuples=%d tombstones=%d retracts=%d",
				round, r.Len(), len(r.Tuples()), r.tombs.Load(), r.Retracts())
		}
		scanned := 0
		r.Scan(func(Tuple) bool { scanned++; return true })
		if scanned != 0 || r.Contains(Tuple{base, base}) || !r.Equal(NewRelation(2, nil)) {
			t.Fatalf("round %d: a Reset relation is not empty (scanned %d)", round, scanned)
		}
		if st := r.store; st.rows != 0 || st.deadCnt != 0 || st.deadAtDrop != 0 || st.used != 0 {
			t.Fatalf("round %d: bookkeeping after Reset: %d rows, %d dead, %d at drop, %d slots used",
				round, st.rows, st.deadCnt, st.deadAtDrop, st.used)
		}
	}
}

// TestResetReusesFirstBlock: the point of Reset. A small relation refills
// into the arena block and dedup table it already has — nothing is
// allocated — while what a large use grew beyond one block is let go.
func TestResetReusesFirstBlock(t *testing.T) {
	r := NewRelation(2, nil)
	r.Insert(Tuple{1, 2})
	st := r.store
	block, slots := &st.blocks[0][0], &st.slots[0]
	r.Reset()
	r.Insert(Tuple{3, 4})
	if len(st.blocks) != 1 || &st.blocks[0][0] != block {
		t.Fatalf("insert after Reset appended a block instead of reusing the first: %d blocks", len(st.blocks))
	}
	if &st.slots[0] != slots {
		t.Fatal("insert after Reset rebuilt the dedup table instead of reusing it")
	}
	if r.Contains(Tuple{1, 2}) || !r.Contains(Tuple{3, 4}) || r.Len() != 1 {
		t.Fatalf("contents after Reset + insert: %v", r.Tuples())
	}
	tup := Tuple{5, 6}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset()
		r.Insert(tup)
	}); allocs != 0 {
		t.Fatalf("Reset + Insert on a warm one-tuple relation allocates %.0f times, want 0", allocs)
	}

	// Three blocks' worth: Reset keeps one block and drops the table that
	// indexed them all; the relation grows back on demand.
	const n = 2*blockRows + 10
	for i := Value(0); i < n; i++ {
		r.Insert(Tuple{i, i})
	}
	if len(st.blocks) != 3 || len(st.slots) <= 2*blockRows {
		t.Fatalf("test premise: %d blocks, %d slots", len(st.blocks), len(st.slots))
	}
	r.Reset()
	if len(st.blocks) != 1 || len(st.dead) != 1 || len(st.slots) != 0 {
		t.Fatalf("after Reset of a three-block relation: %d blocks, %d tombstone sets, %d slots; want 1, 1, 0",
			len(st.blocks), len(st.dead), len(st.slots))
	}
	for i := Value(0); i < n; i++ {
		if !r.Insert(Tuple{i + 7, i}) {
			t.Fatalf("refill: tuple %d rejected", i)
		}
	}
	if r.Len() != n || len(st.blocks) != 3 || !r.Contains(Tuple{n + 6, n - 1}) || r.Contains(Tuple{0, 0}) {
		t.Fatalf("refill after Reset: len=%d blocks=%d", r.Len(), len(st.blocks))
	}
}

// TestResetTrackedRelationPanics: a database-owned relation's rows are
// named by its delta tails and by readers that hold no lock.
func TestResetTrackedRelationPanics(t *testing.T) {
	db := NewDatabase()
	db.AddFact("e", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a tracked relation did not panic")
		}
		if db.Relation("e").Len() != 1 {
			t.Fatal("the refused Reset emptied the relation")
		}
	}()
	db.Relation("e").Reset()
}
