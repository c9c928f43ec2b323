package bitset

import (
	"sync"
	"testing"
)

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
	var s Set
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

func TestConcurrentClaimsOnce(t *testing.T) {
	c := NewConcurrent(128)
	const workers = 8
	// Values both inside the lock-free prefix and in the overflow region.
	values := []int{0, 5, 64, 127, 128, 500, 10000}
	wins := make([]int, len(values))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, v := range values {
				if c.Add(v) {
					mu.Lock()
					wins[i]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for i, n := range wins {
		if n != 1 {
			t.Fatalf("value %d claimed %d times", values[i], n)
		}
	}
	if c.Len() != len(values) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(values))
	}
	got := c.Members()
	if len(got) != len(values) {
		t.Fatalf("Members = %v", got)
	}
	for i, v := range got {
		if v != values[i] {
			t.Fatalf("Members = %v, want %v", got, values)
		}
	}
	for _, v := range values {
		if !c.Has(v) {
			t.Fatalf("Has(%d) = false", v)
		}
	}
	if c.Has(1) || c.Has(200) {
		t.Fatalf("phantom members")
	}
}
