package storage

// tupleKey is a comparable rendering of a tuple for test-side set
// comparisons. Production code identifies tuples by (relation, row id)
// and never builds per-tuple keys; tests still need a map key to diff
// result sets, so they carry arity + values in a fixed array.
type tupleKey [5]Value

func tkey(t Tuple) tupleKey {
	var k tupleKey
	k[0] = Value(len(t))
	copy(k[1:], t)
	return k
}

// added returns the tuples of d's insert window (none when it is nil).
func added(d SignedDelta) []Tuple {
	if d.Added == nil {
		return nil
	}
	return d.Added.Tuples()
}
