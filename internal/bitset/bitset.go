// Package bitset provides the dense bit-vector primitives the evaluator
// and storage layers share: Mask, the multi-word owner bitmask that
// QueryBatch's label propagation runs on; Set, a growable single-writer
// bitset for unary seen-sets (interned Values are dense small ints, so a
// membership test is one word operation instead of a map probe); and
// Concurrent, a lock-free fixed-prefix bitset with a mutex-guarded
// overflow for values interned after creation, used as the Fig. 9
// carry-loop seen-set when the carried context is a single Value.
package bitset

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Mask is a multi-word bitmask of small ordinals (batch query owners).
// Masks grow by the word; there is no 64-bit chunking limit.
type Mask []uint64

// NewMask allocates a mask wide enough for n ordinals.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// Bit returns a fresh n-wide mask with only bit i set.
func Bit(n, i int) Mask {
	m := NewMask(n)
	m[i/64] |= 1 << uint(i%64)
	return m
}

// Test reports whether bit i is set.
func (m Mask) Test(i int) bool { return m[i/64]&(1<<uint(i%64)) != 0 }

// OrNew ors src into m in place, and the bits that were newly set into
// fresh, reporting whether there were any — the label-propagation step of
// a shared traversal.
func (m Mask) OrNew(src, fresh Mask) bool {
	any := false
	for w, sv := range src {
		if nb := sv &^ m[w]; nb != 0 {
			m[w] |= nb
			fresh[w] |= nb
			any = true
		}
	}
	return any
}

// Empty reports whether no bit is set.
func (m Mask) Empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// Set is a growable bitset over non-negative ints. The zero value is an
// empty set. Not safe for concurrent use; see Concurrent.
type Set struct {
	words []uint64
	n     int
}

// Add inserts i, reporting whether it was absent.
func (s *Set) Add(i int) bool {
	w := i >> 6
	if w >= len(s.words) {
		grown := make([]uint64, max(w+1, 2*len(s.words)))
		copy(grown, s.words)
		s.words = grown
	}
	bit := uint64(1) << uint(i&63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// Has reports membership.
func (s *Set) Has(i int) bool {
	w := i >> 6
	return w < len(s.words) && s.words[w]&(1<<uint(i&63)) != 0
}

// Len returns the number of members.
func (s *Set) Len() int { return s.n }

// Range calls f on each member in ascending order until f returns false.
func (s *Set) Range(f func(i int) bool) {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !f(w<<6 | b) {
				return
			}
			word &= word - 1
		}
	}
}

// Concurrent is a bitset safe for concurrent Add/Has. The prefix sized
// at creation is lock-free (atomic Or/Load on fixed words — growing the
// word array under concurrent writers would lose updates); indexes past
// the prefix go to a mutex-guarded overflow set. Sizing the prefix to
// the symbol-table length at creation makes the overflow the rare case:
// only values interned after creation land there.
type Concurrent struct {
	words []atomic.Uint64

	mu       sync.Mutex
	overflow Set
}

// NewConcurrent creates a set with a lock-free prefix covering [0, n).
func NewConcurrent(n int) *Concurrent {
	return &Concurrent{words: make([]atomic.Uint64, (n+63)/64)}
}

// Add inserts i, reporting whether it was absent. Exactly one concurrent
// Add of the same absent value returns true (the claim point parallel
// workers rely on).
func (c *Concurrent) Add(i int) bool {
	w := i >> 6
	if w < len(c.words) {
		bit := uint64(1) << uint(i&63)
		// CAS claim loop: the winner flips the bit, losers observe it set.
		// (Not Uint64.Or-with-result: go1.24.0 amd64 miscompiles that
		// intrinsic; fixed upstream in 1.24.1.)
		for {
			old := c.words[w].Load()
			if old&bit != 0 {
				return false
			}
			if c.words[w].CompareAndSwap(old, old|bit) {
				return true
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow.Add(i - len(c.words)<<6)
}

// Has reports membership.
func (c *Concurrent) Has(i int) bool {
	w := i >> 6
	if w < len(c.words) {
		return c.words[w].Load()&(1<<uint(i&63)) != 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow.Has(i - len(c.words)<<6)
}

// Len returns the number of members, counted word by word: a claim
// writes the one word its bit is in and no shared tally, so the count is
// a walk for its rare callers (a claiming loop knows what it claimed).
func (c *Concurrent) Len() int {
	n := 0
	for w := range c.words {
		n += bits.OnesCount64(c.words[w].Load())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return n + c.overflow.Len()
}

// Members returns the members in ascending order. It observes a
// snapshot of the prefix and the overflow taken word by word: members
// added before the call are always included.
func (c *Concurrent) Members() []int {
	out := make([]int, 0, c.Len())
	for w := range c.words {
		word := c.words[w].Load()
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w<<6|b)
			word &= word - 1
		}
	}
	c.mu.Lock()
	c.overflow.Range(func(i int) bool {
		out = append(out, len(c.words)<<6+i)
		return true
	})
	c.mu.Unlock()
	return out
}
