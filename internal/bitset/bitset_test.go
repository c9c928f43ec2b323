package bitset

import "testing"

func TestMaskOrNew(t *testing.T) {
	m, fresh := NewMask(130), NewMask(130)
	if !fresh.Empty() || !m.OrNew(Bit(130, 7), fresh) || !fresh.Test(7) || fresh.Empty() {
		t.Fatalf("first or should report bit 7 fresh")
	}
	clear(fresh)
	if m.OrNew(Bit(130, 7), fresh) || !fresh.Empty() {
		t.Fatalf("second or of bit 7 reported fresh bits %v", fresh)
	}
	if !m.Test(7) || m.Test(8) {
		t.Fatalf("mask state wrong after or")
	}
	// Cross-word bits, added to what fresh already holds.
	fresh[0] = 1
	if !m.OrNew(Bit(130, 129), fresh) || !m.Test(129) || !fresh.Test(129) || !fresh.Test(0) || fresh.Test(7) {
		t.Fatalf("bit 129 lost: mask %v fresh %v", m, fresh)
	}
}

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
