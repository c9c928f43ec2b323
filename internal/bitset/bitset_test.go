package bitset

import "testing"

func TestSetAddHasRange(t *testing.T) {
	// Sized for [0, 128): 1000 is past it and grows the set.
	s := NewSet(128)
	for _, v := range []int{0, 1, 63, 64, 1000} {
		if !s.Add(v) {
			t.Fatalf("Add(%d) reported duplicate on first insert", v)
		}
		if s.Add(v) {
			t.Fatalf("Add(%d) reported fresh on second insert", v)
		}
	}
	if s.Len() != 5 || !s.Has(1000) || s.Has(999) {
		t.Fatalf("set state wrong: len=%d", s.Len())
	}
	var got []int
	s.Range(func(i int) bool { got = append(got, i); return true })
	want := []int{0, 1, 63, 64, 1000}
	if len(got) != len(want) {
		t.Fatalf("Range yielded %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range yielded %v, want %v", got, want)
		}
	}
}
