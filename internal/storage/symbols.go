package storage

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
)

// SymbolTable interns constant names as dense Values. It is safe for
// concurrent use.
//
// The table owns its bytes: a name is copied into one of a few large text
// chunks on first sight and is from then on a substring of its chunk —
// Name allocates nothing, and nothing the caller passed in (a slice of a
// whole source text, one JSON-decoded string per argument) stays
// reachable through the table. A chunk is filled once and never moves.
// spans locates each Value's name, and the lookup index is open addressing
// over Value+1 beside the name's hash, so neither holds a pointer.
//
// Reach: a span addresses 1<<(32-textShift) chunks, each entered within
// its first 1<<textShift bytes — 4 GiB of names — and a name of up to
// 4 GiB; interning beyond either panics, naming this limit.
type SymbolTable struct {
	mu   sync.RWMutex
	seed maphash.Seed
	// chunks[c] is the text written to chunk c so far; cur is the builder
	// behind the last one, grown once, when the chunk was started, and
	// never beyond; text is the bytes reserved over all chunks.
	chunks []string
	cur    strings.Builder
	text   int
	// spans[v] locates Value v's name.
	spans []span
	// Lookup index: linear probing, power-of-two size, at most 3/4 full.
	// slots holds Value+1 (0 = empty) and hashes each occupied slot's hash,
	// which places the slot, is compared before any text is, and re-places
	// the slot when the index doubles.
	slots  []int32
	hashes []uint32
	// onIntern, when set, observes every fresh intern under mu (the
	// write-ahead log's ordering hook). Set via SetInternHook.
	onIntern func(name string)
}

// span locates a name: chunk at>>textShift from byte at&textMask, n bytes.
type span struct{ at, n uint32 }

const (
	// textShift splits a span's address into chunk and byte.
	textShift = 16
	textMask  = 1<<textShift - 1
	// minTextChunk is the size of a table's first text chunk; each later
	// one is as large as all before it together, up to 1<<textShift — or
	// as large as the one name that would not fit it.
	minTextChunk = 256
	// minSymSlots is the size of the smallest lookup index.
	minSymSlots = 16
)

// NewSymbolTable creates an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{seed: maphash.MakeSeed()}
}

// hash is the 32 bits of name's hash the index works with: the high word,
// the better mixed one.
func (st *SymbolTable) hash(name string) uint32 {
	return uint32(maphash.String(st.seed, name) >> 32)
}

// name returns Value v's name, v in range. Caller holds mu.
func (st *SymbolTable) name(v Value) string {
	sp := st.spans[v]
	at := sp.at & textMask
	return st.chunks[sp.at>>textShift][at : at+sp.n]
}

// lookup probes the index for name (hash h). Caller holds mu.
func (st *SymbolTable) lookup(name string, h uint32) (Value, bool) {
	if len(st.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(st.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := st.slots[i]
		if s == 0 {
			return 0, false
		}
		if st.hashes[i] == h && st.name(Value(s-1)) == name {
			return Value(s - 1), true
		}
	}
}

// lookupAll resolves names into dst until one is unknown. Caller holds mu.
func (st *SymbolTable) lookupAll(names []string, dst []Value) bool {
	for i, n := range names {
		v, ok := st.lookup(n, st.hash(n))
		if !ok {
			return false
		}
		dst[i] = v
	}
	return true
}

// symbolsFull is the panic of a table asked to hold more text than a span
// can address.
const symbolsFull = "storage: a symbol table is limited to 4 GiB of names (65536 text chunks entered within 64 KiB each) and 4 GiB a name"

// keep copies name into the text chunks as the next Value's and returns
// the table's copy. Caller holds the write lock.
func (st *SymbolTable) keep(name string) string {
	at := st.cur.Len()
	if len(st.chunks) == 0 || at > textMask || at+len(name) > st.cur.Cap() {
		if len(st.chunks) == 1<<(32-textShift) || uint64(len(name)) > 1<<32-1 {
			panic(symbolsFull)
		}
		st.cur = strings.Builder{}
		st.cur.Grow(max(min(max(st.text, minTextChunk), 1<<textShift), len(name)))
		st.text += st.cur.Cap()
		st.chunks = append(st.chunks, "")
		at = 0
	}
	st.cur.WriteString(name)
	chunk := st.cur.String()
	last := len(st.chunks) - 1
	st.chunks[last] = chunk
	st.spans = append(st.spans, span{at: uint32(last)<<textShift | uint32(at), n: uint32(len(name))})
	return chunk[at:]
}

// add interns a name the index does not hold (hash h) as the next Value.
// Caller holds the write lock.
func (st *SymbolTable) add(name string, h uint32) Value {
	v := Value(len(st.spans))
	if 4*(len(st.spans)+1) > 3*len(st.slots) {
		slots := make([]int32, max(2*len(st.slots), minSymSlots))
		hashes := make([]uint32, len(slots))
		mask := uint32(len(slots) - 1)
		for i, s := range st.slots {
			if s != 0 {
				j := st.hashes[i] & mask
				for slots[j] != 0 {
					j = (j + 1) & mask
				}
				slots[j], hashes[j] = s, st.hashes[i]
			}
		}
		st.slots, st.hashes = slots, hashes
	}
	mask := uint32(len(st.slots) - 1)
	i := h & mask
	for st.slots[i] != 0 {
		i = (i + 1) & mask
	}
	st.slots[i], st.hashes[i] = int32(v)+1, h
	name = st.keep(name)
	if st.onIntern != nil {
		st.onIntern(name)
	}
	return v
}

// Intern returns the Value for name, assigning a fresh one on first
// use: InternBatch of one name.
func (st *SymbolTable) Intern(name string) Value {
	var v [1]Value
	st.InternBatch([]string{name}, v[:])
	return v[0]
}

// InternBatch interns every name into dst (which must have the same
// length as names), taking the read lock once for the whole run and
// escalating to the write lock only when some name is fresh. It is the
// only code that assigns Values and calls the intern hook — with the
// table's copy of the name, the caller's being the caller's to drop.
func (st *SymbolTable) InternBatch(names []string, dst []Value) {
	st.mu.RLock()
	hit := st.lookupAll(names, dst)
	st.mu.RUnlock()
	if hit {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, n := range names {
		h := st.hash(n)
		v, ok := st.lookup(n, h)
		if !ok {
			v = st.add(n, h)
		}
		dst[i] = v
	}
}

// SetInternHook installs (or clears, with nil) the fresh-intern observer.
// The hook runs with the table's write lock held, so its calls are
// ordered exactly like the interns themselves; it must not call back into
// the table.
func (st *SymbolTable) SetInternHook(hook func(name string)) {
	st.mu.Lock()
	st.onIntern = hook
	st.mu.Unlock()
}

// Names returns the interned names in Value order (Value(i) is names[i])
// — the symbol-table section of a snapshot. The slice is the caller's;
// the strings are views of the table's text.
func (st *SymbolTable) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, len(st.spans))
	for v := range out {
		out[v] = st.name(Value(v))
	}
	return out
}

// LookupBatch resolves every name into dst (same length as names)
// without interning, under one read lock, reporting false as soon as a
// name is unknown — a tuple naming it cannot be stored.
func (st *SymbolTable) LookupBatch(names []string, dst []Value) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lookupAll(names, dst)
}

// Lookup returns the Value for name without interning.
func (st *SymbolTable) Lookup(name string) (Value, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lookup(name, st.hash(name))
}

// Name returns the constant name for a Value.
func (st *SymbolTable) Name(v Value) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if int(v) < 0 || int(v) >= len(st.spans) {
		return fmt.Sprintf("#%d", v)
	}
	return st.name(v)
}

// Len returns the number of interned symbols.
func (st *SymbolTable) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.spans)
}
