// Package datagen generates the synthetic workloads used by the
// experiment harness: graph shapes for the canonical recursion, genealogy
// forests for same generation, market-basket data for the buys recursion,
// permission graphs for Example 4.1, and the Lemma 4.2 adversarial family.
package datagen

import (
	"math/rand"
	"strconv"

	"repro/internal/storage"
)

// node formats the i-th node name with a prefix.
func node(prefix string, i int) string { return prefix + strconv.Itoa(i) }

// Chain adds an edge chain pred(p0, p1), ..., pred(p{n-1}, p{n}) to db and
// returns the first and last node names.
func Chain(db *storage.Database, pred, prefix string, n int) (first, last string) {
	for i := 0; i < n; i++ {
		db.AddFact(pred, node(prefix, i), node(prefix, i+1))
	}
	return node(prefix, 0), node(prefix, n)
}

// Cycle adds an n-cycle over pred.
func Cycle(db *storage.Database, pred, prefix string, n int) {
	for i := 0; i < n; i++ {
		db.AddFact(pred, node(prefix, i), node(prefix, (i+1)%n))
	}
}

// RandomGraph adds m random directed edges over n nodes.
func RandomGraph(db *storage.Database, pred, prefix string, n, m int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		db.AddFact(pred, node(prefix, rng.Intn(n)), node(prefix, rng.Intn(n)))
	}
}

// TCWorkload builds a transitive-closure database: an a-graph of the given
// shape plus b-edges out of `sinks` random nodes. Returns a query start
// node guaranteed to reach at least one b-edge on chain shapes.
type TCWorkload struct {
	DB    *storage.Database
	Start string
	End   string
}

// ChainTC builds the chain workload for the canonical recursion: a-chain
// of length n, b-edge from the end.
func ChainTC(n int) TCWorkload {
	db := storage.NewDatabase()
	first, last := Chain(db, "a", "n", n)
	db.AddFact("b", last, "end")
	return TCWorkload{DB: db, Start: first, End: "end"}
}

// RandomTC builds a random-graph workload: n nodes, m a-edges, k b-edges.
func RandomTC(n, m, k int, seed int64) TCWorkload {
	db := storage.NewDatabase()
	RandomGraph(db, "a", "n", n, m, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < k; i++ {
		db.AddFact("b", node("n", rng.Intn(n)), node("end", i))
	}
	return TCWorkload{DB: db, Start: node("n", 0), End: node("end", 0)}
}

// CyclicTC builds a cycle of length n with one b exit.
func CyclicTC(n int) TCWorkload {
	db := storage.NewDatabase()
	Cycle(db, "a", "n", n)
	db.AddFact("b", node("n", n/2), "end")
	return TCWorkload{DB: db, Start: node("n", 0), End: "end"}
}

// Genealogy builds a same-generation workload: a forest of `families`
// complete binary trees of the given depth, recorded as p(child, parent),
// with sg0 holding the root reflexive pairs. Returns two leaves of the
// first tree that are in the same generation.
func Genealogy(families, depth int) (*storage.Database, string, string) {
	db := storage.NewDatabase()
	var leafA, leafB string
	for f := 0; f < families; f++ {
		prefix := "f" + strconv.Itoa(f) + "_"
		// Nodes are indexed heap-style: node i has children 2i+1, 2i+2.
		total := 1<<(depth+1) - 1
		firstLeaf := 1<<depth - 1
		for i := 1; i < total; i++ {
			db.AddFact("p", node(prefix, i), node(prefix, (i-1)/2))
		}
		db.AddFact("sg0", node(prefix, 0), node(prefix, 0))
		if f == 0 {
			leafA = node(prefix, firstLeaf)
			leafB = node(prefix, total-1)
		}
	}
	return db, leafA, leafB
}

// Market builds a buys/likes/cheap workload: a knows-chain of length n per
// person cluster, likes edges at the chain ends, and a cheap item set.
func Market(people, chainLen, items int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	for p := 0; p < people; p++ {
		prefix := "p" + strconv.Itoa(p) + "_"
		_, last := Chain(db, "knows", prefix, chainLen)
		db.AddFact("likes", last, node("item", rng.Intn(items)))
	}
	for i := 0; i < items; i++ {
		if i%2 == 0 {
			db.AddFact("cheap", node("item", i))
		}
	}
	return db
}

// Permissions builds the Example 4.1 workload: an a-chain of length n,
// b-edges from the chain end to `items` sinks, and p permissions: every
// chain node may reach item0; deeper items require permissions that only
// some nodes hold (density controls how many).
func Permissions(n, items int, density float64, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	_, last := Chain(db, "a", "n", n)
	for i := 0; i < items; i++ {
		db.AddFact("b", last, node("item", i))
	}
	for i := 0; i <= n; i++ {
		db.AddFact("p", node("n", i), "item0")
		for j := 1; j < items; j++ {
			if rng.Float64() < density {
				db.AddFact("p", node("n", i), node("item", j))
			}
		}
	}
	return db
}

// Lemma42 builds the adversarial family from Lemma 4.2 for the canonical
// two-sided recursion: a = {(v1, v1)}, b = {(v1, v0)}, and c the chain
// v0 -> v1 -> ... -> v2k. In the only proof that t(v1, v2k) holds, v1
// appears 2k times in the first column of a.
func Lemma42(k int) *storage.Database {
	db := storage.NewDatabase()
	db.AddFact("a", "v1", "v1")
	db.AddFact("b", "v1", "v0")
	for i := 0; i < 2*k; i++ {
		db.AddFact("c", node("v", i), node("v", i+1))
	}
	return db
}

// TwoSidedRandom builds a random workload for the canonical two-sided
// recursion: a and c random graphs over disjoint node pools bridged by b.
func TwoSidedRandom(n, m int, seed int64) *storage.Database {
	db := storage.NewDatabase()
	RandomGraph(db, "a", "l", n, m, seed)
	RandomGraph(db, "c", "r", n, m, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < n/2; i++ {
		db.AddFact("b", node("l", rng.Intn(n)), node("r", rng.Intn(n)))
	}
	return db
}

// Example34 builds a workload for Example 3.4: an e-chain, a d set, and
// t0 exit tuples.
func Example34(chainLen, dSize, exits int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	for i := 0; i < chainLen; i++ {
		db.AddFact("e", node("u", i+1), node("u", i))
	}
	for i := 0; i < dSize; i++ {
		db.AddFact("d", node("z", i))
	}
	for i := 0; i < exits; i++ {
		db.AddFact("t0", node("x", i), node("u", rng.Intn(chainLen+1)), node("w", i))
	}
	return db
}
