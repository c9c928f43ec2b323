// Package bitset provides Set, the dense bit-vector the evaluator and
// storage layers share: a growable single-writer bitset for unary
// seen-sets — the Fig. 9 carry loop's when the carried context is a
// single Value (interned Values are dense small ints, so a membership
// test is one word operation instead of a map probe).
package bitset

import "math/bits"

// Set is a growable bitset over non-negative ints. The zero value is an
// empty set. Not safe for concurrent use.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set with room for [0, n): adding a member
// below n never reallocates.
func NewSet(n int) *Set { return &Set{words: make([]uint64, (n+63)/64)} }

// Add inserts i, reporting whether it was absent.
func (s *Set) Add(i int) bool { return s.Claim(i) == 1 }

// Claim inserts i and returns 1 if it was absent, 0 if not: the word is
// or-ed and the old bit read out, with no branch on which it was, so that
// a loop may advance by the result.
func (s *Set) Claim(i int) int {
	w, b := i>>6, uint(i&63)
	if w >= len(s.words) {
		grown := make([]uint64, max(w+1, 2*len(s.words)))
		copy(grown, s.words)
		s.words = grown
	}
	word := s.words[w]
	s.words[w] = word | 1<<b
	fresh := int(^word >> b & 1)
	s.n += fresh
	return fresh
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
