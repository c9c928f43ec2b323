package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// seededNames is n names drawn with repeats from a seeded mix: short
// identifiers, multi-byte text, the empty name, and one name longer than a
// text chunk.
func seededNames(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	long := strings.Repeat("long·", (1<<textShift)/5)
	names := make([]string, n)
	for i := range names {
		switch k := rng.Intn(1000); {
		case k == 0:
			names[i] = ""
		case k == 1:
			names[i] = long
		case k < 50:
			names[i] = fmt.Sprintf("Zürich–大阪 %d", rng.Intn(n/10+1))
		case k < 400:
			names[i] = names[rng.Intn(i+1)] // seen before (or empty, at i)
		default:
			names[i] = fmt.Sprintf("c%x", rng.Int63n(int64(n)))
		}
	}
	return names
}

// TestSymbolTableAgainstModel interns 200 000 seeded names, one at a time
// and in batches, into a table and into a map[string]Value + []string
// beside it: Values, Names, Len, Lookup, LookupBatch and Name agree
// throughout, the index having doubled a dozen times and the text filled
// several chunks on the way, and the intern hook saw every name once, in
// Value order.
func TestSymbolTableAgainstModel(t *testing.T) {
	names := seededNames(22, 200_000)
	st := NewSymbolTable()
	var hooked []string
	st.SetInternHook(func(name string) { hooked = append(hooked, name) })
	ids := make(map[string]Value)
	var byValue []string
	model := func(name string) Value {
		v, ok := ids[name]
		if !ok {
			v = Value(len(byValue))
			ids[name], byValue = v, append(byValue, name)
		}
		return v
	}
	rng := rand.New(rand.NewSource(1))
	dst := make([]Value, 64)
	for at := 0; at < len(names); {
		want, known := ids[names[at]]
		if v, ok := st.Lookup(names[at]); ok != known || ok && v != want {
			t.Fatalf("lookup of %q = %d, %v; model %d, %v", names[at], v, ok, want, known)
		}
		if rng.Intn(2) == 0 {
			if got, want := st.Intern(names[at]), model(names[at]); got != want {
				t.Fatalf("intern of %q = %d, model %d", names[at], got, want)
			}
			at++
			continue
		}
		batch := names[at:min(at+1+rng.Intn(len(dst)), len(names))]
		st.InternBatch(batch, dst[:len(batch)])
		for i, name := range batch {
			if want := model(name); dst[i] != want {
				t.Fatalf("batched intern of %q = %d, model %d", name, dst[i], want)
			}
		}
		if !st.LookupBatch(batch, dst[:len(batch)]) || dst[0] != ids[batch[0]] {
			t.Fatalf("lookup of a batch just interned failed")
		}
		at += len(batch)
	}
	if st.Len() != len(byValue) || !slices.Equal(st.Names(), byValue) {
		t.Fatalf("the table holds %d names, the model %d, or not the same ones", st.Len(), len(byValue))
	}
	if !slices.Equal(hooked, byValue) {
		t.Fatalf("the hook saw %d names, not the %d interned in Value order", len(hooked), len(byValue))
	}
	for v, name := range byValue {
		if got := st.Name(Value(v)); got != name {
			t.Fatalf("name of %d = %q, model %q", v, got, name)
		}
		if got, ok := st.Lookup(name); !ok || got != Value(v) {
			t.Fatalf("lookup of %q = %d, %v; model %d", name, got, ok, v)
		}
	}
	if _, ok := st.Lookup("never interned"); ok || st.LookupBatch([]string{byValue[0], "never interned"}, dst[:2]) {
		t.Fatal("a name never interned was found")
	}
	if st.Name(-1) != "#-1" || st.Name(Value(len(byValue))) != fmt.Sprintf("#%d", len(byValue)) {
		t.Fatalf("names of Values out of range: %q, %q", st.Name(-1), st.Name(Value(len(byValue))))
	}
	if len(st.chunks) < 4 || len(st.slots) < 1<<17 {
		t.Fatalf("test premise: %d text chunks, %d index slots", len(st.chunks), len(st.slots))
	}
}

// TestSymbolTableConcurrent interns overlapping names from several
// goroutines while others resolve Values and names: every name ends up
// with one Value, whoever interned it, and a Value's name never changes.
// Run under -race.
func TestSymbolTableConcurrent(t *testing.T) {
	st := NewSymbolTable()
	names := seededNames(5, 20_000)
	const writers, readers = 4, 3
	got := make([][]Value, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each writer interns the whole list, from its own offset round.
			mine := slices.Concat(names[g*len(names)/writers:], names[:g*len(names)/writers])
			vals := make([]Value, len(mine))
			for at := 0; at < len(mine); at += 32 {
				end := min(at+32, len(mine))
				st.InternBatch(mine[at:end], vals[at:end])
			}
			got[g] = slices.Concat(vals[len(mine)-g*len(names)/writers:], vals[:len(mine)-g*len(names)/writers])
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20_000 && !t.Failed(); i++ {
				name := names[rng.Intn(len(names))]
				if v, ok := st.Lookup(name); ok && st.Name(v) != name {
					t.Errorf("lookup of %q = %d, whose name is %q", name, v, st.Name(v))
				}
				if n := st.Len(); n > 0 {
					v := Value(rng.Intn(n))
					if back, ok := st.Lookup(st.Name(v)); !ok || back != v {
						t.Errorf("Value %d is named %q, which looks up as %d, %v", v, st.Name(v), back, ok)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < writers; g++ {
		if !slices.Equal(got[g], got[0]) {
			t.Fatalf("writers 0 and %d were given different Values for the same names", g)
		}
	}
	all := st.Names()
	for i, name := range names {
		if all[got[0][i]] != name {
			t.Fatalf("%q was interned as %d, which is %q", name, got[0][i], all[got[0][i]])
		}
	}
	distinct := make(map[string]bool)
	for _, name := range names {
		distinct[name] = true
	}
	if st.Len() != len(distinct) {
		t.Fatalf("%d Values for %d distinct names", st.Len(), len(distinct))
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestInternDoesNotRetainCallerString: the lexer hands out constants as
// substrings of the source text and a JSON decoder one string per
// argument; a table that kept the string it was given as its name kept the
// whole source alive for as long as the database. Twelve constants cut out
// of a 16 MB text are interned, the text dropped, and the heap must be
// back within 1 MB of where it was.
func TestInternDoesNotRetainCallerString(t *testing.T) {
	db := NewDatabase()
	before := liveHeap()
	func() {
		var b strings.Builder
		b.Grow(16 << 20)
		for i := 0; b.Len() < 16<<20; i++ {
			fmt.Fprintf(&b, "constant%07d ", i)
		}
		src := b.String()
		for i := 0; i < 12; i += 2 {
			at, next := i*1_000_000, (i+1)*1_000_000
			if !db.AddFact(src[at:at+4], src[at:at+15], src[next:next+15]) { // the predicate is "cons"
				t.Fatalf("fact %d refused", i)
			}
		}
	}()
	if db.Syms.Len() != 12 || db.TupleCount() != 6 {
		t.Fatalf("%d symbols, %d tuples", db.Syms.Len(), db.TupleCount())
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Fatalf("live heap %d bytes before the load, %d after the source was dropped: something of it is still referenced", before, after)
	}
	runtime.KeepAlive(db)
}

// TestSymbolTableBytesPerSymbol pins the table's cost by Footprint:
// beside the name's own bytes, a symbol costs its span, its share of the
// lookup index at its worst load — 3/8, just doubled — and the slack of the
// slices and the last text chunk: 48 bytes at most. (A map[string]Value
// beside a []string, each name an allocation of its own, cost about 100.)
func TestSymbolTableBytesPerSymbol(t *testing.T) {
	const n = 3<<15 + 1 // one past 3/4 of 2^17 index slots
	db := NewDatabase()
	nameBytes := 0
	batch, dst := make([]string, 0, 256), make([]Value, 256)
	for i := 0; i < n; i++ {
		batch = append(batch, fmt.Sprintf("n%d", i))
		nameBytes += len(batch[len(batch)-1])
		if len(batch) == cap(batch) || i == n-1 {
			db.Syms.InternBatch(batch, dst[:len(batch)])
			batch = batch[:0]
		}
	}
	if slots := len(db.Syms.slots); db.Syms.Len() != n || slots != 1<<18 {
		t.Fatalf("test premise: %d symbols in %d index slots is not the worst load", db.Syms.Len(), slots)
	}
	f := db.Footprint()
	perSymbol := float64(f.SymbolText+f.SymbolIndex-int64(nameBytes)) / n
	t.Logf("%d symbols, %d name bytes: %d text + %d index bytes, %.1f B/symbol beside the name", n, nameBytes, f.SymbolText, f.SymbolIndex, perSymbol)
	if perSymbol > 48 {
		t.Errorf("%.1f bytes a symbol beside its name, budget 48", perSymbol)
	}
}
