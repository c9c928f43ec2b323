package onesided

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// copyLogDir copies a log directory file by file: taken beside live
// writers, the copy is a crash image (in-flight appends may leave a torn
// tail).
func copyLogDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// holds reports whether db stores the fact, without changing db.
func holds(db *Database, pred string, args ...string) bool {
	rel := db.Relation(pred)
	t := make(storage.Tuple, len(args))
	return rel != nil && rel.Arity() == len(args) && db.Syms.LookupBatch(args, t) && rel.Contains(t)
}

// TestApplyAckDurability is TestGroupCommitAckDurability one layer up,
// for whole requests: an Apply that returned under SyncAlways was covered
// by an fsync — all of it, whatever predicates it touched — so a crash at
// ANY later moment must recover every one of its inserts and none of the
// facts it retracted. Concurrent writers issue multi-predicate writes and
// record each acknowledgment; meanwhile the log directory is copied
// mid-run (a crash image). Recovery of every image must reflect every
// write acknowledged before the image was taken.
func TestApplyAckDurability(t *testing.T) {
	master := t.TempDir()
	eng, err := Open(WithPersistence(master), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 30
	// Write k of writer w inserts three facts that stay (three predicates)
	// and two that write k+1 retracts (two more).
	name := func(w, k int) string { return fmt.Sprintf("w%dk%d", w, k) }
	write := func(w, k int) Write {
		n := name(w, k)
		wr := Write{Insert: []Fact{
			{Pred: "keep1", Args: []string{n, "x"}},
			{Pred: "tmp1", Args: []string{n, "x"}},
			{Pred: "keep2", Args: []string{n, "y"}},
			{Pred: "tmp2", Args: []string{n}},
			{Pred: "keep3", Args: []string{n, "x", "y"}},
		}}
		if k > 0 {
			p := name(w, k-1)
			wr.Retract = []Fact{{Pred: "tmp2", Args: []string{p}}, {Pred: "tmp1", Args: []string{p, "x"}}}
		}
		return wr
	}

	var mu sync.Mutex
	var acked [][2]int // {writer, k}
	type image struct {
		dir string
		n   int // len(acked) at (or before) the copy
	}
	var images []image

	stop := make(chan struct{})
	var imgWG sync.WaitGroup
	imgWG.Add(1)
	go func() {
		defer imgWG.Done()
		for len(images) < 5 {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n == 0 {
				continue
			}
			images = append(images, image{copyLogDir(t, master), n})
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				wr := write(w, k)
				a, err := eng.Apply(wr)
				if err != nil || a.Added != len(wr.Insert) || a.Removed != len(wr.Retract) {
					t.Errorf("write %d of writer %d: applied %+v, err %v", k, w, a, err)
					return
				}
				mu.Lock()
				acked = append(acked, [2]int{w, k})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	imgWG.Wait()
	// A final image taken after every ack, before a clean Close: the
	// fsync-before-ack guarantee must not depend on Close's flush.
	images = append(images, image{copyLogDir(t, master), len(acked)})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	for _, img := range images {
		re, err := Open(WithPersistence(img.dir))
		if err != nil {
			t.Fatalf("recovering the image with %d acked writes: %v", img.n, err)
		}
		db := re.DB()
		for _, a := range acked[:img.n] {
			wr := write(a[0], a[1])
			for _, f := range wr.Insert {
				if strings.HasPrefix(f.Pred, "tmp") {
					continue // the writer's next write, acked or in flight, may have retracted it
				}
				if !holds(db, f.Pred, f.Args...) {
					t.Fatalf("image with %d acked writes: write %v was acknowledged but its insert %v is missing", img.n, a, f)
				}
			}
			for _, f := range wr.Retract {
				if holds(db, f.Pred, f.Args...) {
					t.Fatalf("image with %d acked writes: write %v was acknowledged but its retraction of %v is undone", img.n, a, f)
				}
			}
		}
		re.Close()
	}
}

// TestTornGroupRecoversRecordPrefix: a request is one durable unit, not
// an atomic one. Its records — inserts then retractions, each side
// grouped by predicate in first-seen order — are framed into one buffer,
// and a crash that cuts the buffer anywhere must recover exactly the
// mutations of the intact record prefix, in that order: never a later
// record without an earlier one, never a panic, and the epoch one tick
// per recovered record.
func TestTornGroupRecoversRecordPrefix(t *testing.T) {
	master := t.TempDir()
	eng, err := Open(WithPersistence(master), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	f := func(pred string, args ...string) Fact { return Fact{Pred: pred, Args: args} }
	// The seed interns every constant, so the segment's tail is purely the
	// group's fact and retract records.
	seed := []Fact{f("u", "c0", "c1"), f("u", "c1", "c2"), f("v", "c0"), f("v", "c1"), f("w", "c2", "c0")}
	if a, err := eng.Apply(Write{Insert: seed}); err != nil || a.Added != len(seed) {
		t.Fatalf("seed: %+v, %v", a, err)
	}
	segs, err := eng.Log().Segments()
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments before the group: %+v, %v", segs, err)
	}
	groupStart := int(segs[0].Size)
	group := Write{
		Insert:  []Fact{f("u", "c2", "c0"), f("v", "c2"), f("u", "c2", "c1"), f("w", "c0", "c1"), f("v", "c0") /* duplicate */, f("w", "c1", "c2")},
		Retract: []Fact{f("v", "c1"), f("u", "c0", "c1"), f("v", "c9") /* missing */, f("w", "c2", "c0")},
	}
	if a, err := eng.Apply(group); err != nil || a.Added != 5 || a.Removed != 3 {
		t.Fatalf("group: %+v, %v", a, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The accepted mutations in record order.
	type mutation struct {
		del bool
		f   Fact
	}
	order := []mutation{
		{false, f("u", "c2", "c0")}, {false, f("u", "c2", "c1")}, {false, f("v", "c2")}, {false, f("w", "c0", "c1")}, {false, f("w", "c1", "c2")},
		{true, f("v", "c1")}, {true, f("u", "c0", "c1")}, {true, f("w", "c2", "c0")},
	}
	// want[k] is the database after the first k of them.
	model, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.InsertFacts(seed); err != nil {
		t.Fatal(err)
	}
	want := []string{model.DB().Dump()}
	for _, m := range order {
		if m.del {
			if ok, _ := model.Retract(m.f.Pred, m.f.Args...); !ok {
				t.Fatalf("model: %v was not present", m.f)
			}
		} else if !model.AddFact(m.f.Pred, m.f.Args...) {
			t.Fatalf("model: %v was present", m.f)
		}
		want = append(want, model.DB().Dump())
	}

	segName := wal.SegmentFileName(segs[0].Seq)
	data, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the offset at which the group's k-th record is complete.
	ends := []int{groupStart}
	for off := groupStart; off < len(data); {
		_, n, err := wal.SplitRecord(data[off:])
		if err != nil {
			t.Fatalf("record at offset %d of a cleanly closed segment: %v", off, err)
		}
		off += n
		ends = append(ends, off)
	}
	if len(ends)-1 != len(order) {
		t.Fatalf("the group journaled %d records, want %d", len(ends)-1, len(order))
	}

	scratch := t.TempDir()
	for cut := groupStart; cut <= len(data); cut++ {
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		dir := filepath.Join(scratch, fmt.Sprint(cut))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(WithPersistence(dir))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := re.DB().Dump(); got != want[k] {
			t.Fatalf("cut %d: recovered\n%s\nwant the first %d records of the group:\n%s", cut, got, k, want[k])
		}
		if got, wantEpoch := re.DB().Epoch(), uint64(len(seed)+k); got != wantEpoch {
			t.Fatalf("cut %d: recovered epoch %d, want %d (one tick per record)", cut, got, wantEpoch)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close after repair: %v", cut, err)
		}
	}
}
