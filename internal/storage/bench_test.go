package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGraph loads a binary relation shaped like the benchmark workloads'
// edge relations into a tracked database relation (so probes are counted):
// "digraph" is 120 000 random edges over 30 000 values, degree ≈ 4,
// "chain" 20 000 edges in a line, degree 1, and "exits" 300 random edges
// over the digraph's 30 000 values — wide_cold's exit relation, whose
// column 0 is a hashed directory with a presence bitmap — and "ranges"
// 30 000 keys of four rows each, inserted key by key, so that every key's
// rows are one range of a dense directory, as a clustered relation's are.
// universe is the
// number of values column 0 is drawn from; with spread 2 they are its
// first universe even numbers instead of 0, 1, 2, ….
func benchGraph(shape string, spread int) (rel *Relation, stats *Counters, universe int) {
	db := NewDatabase()
	rel = db.Ensure("a", 2)
	rng := rand.New(rand.NewSource(1))
	var edges []Tuple
	switch shape {
	case "digraph":
		universe = 30000
		for i := 0; i < 120000; i++ {
			edges = append(edges, Tuple{Value(spread * rng.Intn(universe)), Value(rng.Intn(universe))})
		}
	case "chain":
		universe = 20000
		for i := 0; i < universe; i++ {
			edges = append(edges, Tuple{Value(spread * i), Value(i + 1)})
		}
	case "exits":
		universe = 30000
		for i := 0; i < 300; i++ {
			edges = append(edges, Tuple{Value(spread * rng.Intn(universe)), Value(rng.Intn(universe))})
		}
	case "ranges":
		universe = 30000
		for k := 0; k < universe; k++ {
			for j := 0; j < 4; j++ {
				edges = append(edges, Tuple{Value(spread * k), Value((k + j*universe/4) % universe)})
			}
		}
	}
	rel.InsertBatch(edges)
	rel.Lookup([]Binding{{Col: 0, Val: 0}}, func(Tuple) bool { return true }) // build the directory
	return rel, &db.Stats, universe
}

// BenchmarkRelationLookup is the restricted lookup on column 0 — the
// probe Property 3 prices — over both graph shapes, for keys that are
// there, in random order (hit) and in the order a Fig. 9 level walks a
// chain, 0, 1, 2, … (walk), and for keys that are not: beyond every key
// (miss), and between the keys, odd ones probed against a column of even
// ones (gap); on the exit relation, keys drawn from the whole span of the
// digraph's values, as a wide level's exit probes are, ≈99 % of them
// misses inside the key range (span); on the four-row ranges, keys in
// random order (hit). Each is counted in the shared Counters (LookupBuf) or in a
// tally the goroutine owns (LookupTally), from one goroutine and from
// GOMAXPROCS of them — and the same keys are probed through LookupKeys
// (tallied, serial), one key a call and sixteen: the staged probe's
// overhead on a lone key and what overlapping a stage's misses buys — and
// through GatherKeys (gather/keys=…), column 1 of every row appended to a
// buffer the caller reuses, as a one-atom f's level reads it, and through
// GatherKey (gather/lone), one key a call, as a chain's level reads it: a
// chain's hit is a key whose one row is in its slot word, its column
// returned by value. One op is a
// pass over 4096 keys, so that a fixed small -benchtime still times
// something; it must not allocate.
func BenchmarkRelationLookup(b *testing.B) {
	for _, shape := range []string{"digraph", "chain", "exits", "ranges"} {
		rel, stats, universe := benchGraph(shape, 1)
		even, evenStats, _ := benchGraph(shape, 2)
		kinds := []string{"hit", "walk", "miss", "gap"}
		switch shape {
		case "exits":
			kinds = []string{"span"}
		case "ranges":
			kinds = []string{"hit"}
		}
		for _, keys := range kinds {
			rel, stats := rel, stats
			rng := rand.New(rand.NewSource(2))
			probe := make([]Value, 1<<12)
			for i := range probe {
				switch keys {
				case "hit", "span":
					probe[i] = Value(rng.Intn(universe))
				case "walk":
					probe[i] = Value(i)
				case "miss":
					probe[i] = Value(universe + 1 + rng.Intn(universe)) // beyond every value in either column
				case "gap":
					probe[i] = Value(2*rng.Intn(universe) + 1)
				}
			}
			if keys == "gap" {
				rel, stats = even, evenStats
			}
			perLookup := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(probe)), "ns/lookup")
			}
			for _, group := range []int{1, 16} {
				b.Run(fmt.Sprintf("%s/%s/keys=%d", shape, keys, group), func(b *testing.B) {
					var st KeyStage
					tally := stats.Tally()
					yield := func(int, Tuple) bool { return true }
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for at := 0; at < len(probe); at += group {
							rel.LookupKeys(0, probe[at:at+group], &st, &tally, yield)
						}
					}
					tally.Flush()
					perLookup(b)
				})
				b.Run(fmt.Sprintf("%s/%s/gather/keys=%d", shape, keys, group), func(b *testing.B) {
					var st KeyStage
					tally := stats.Tally()
					outs, ends := []int{1}, make([]int, group)
					var dst []Value
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for at := 0; at < len(probe); at += group {
							dst = rel.GatherKeys(0, outs, probe[at:at+group], &st, &tally, dst[:0], ends)
						}
					}
					tally.Flush()
					perLookup(b)
				})
			}
			b.Run(fmt.Sprintf("%s/%s/gather/lone", shape, keys), func(b *testing.B) {
				tally := stats.Tally()
				outs := []int{1}
				var dst []Value
				var sum Value
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, key := range probe {
						v, _, grown := rel.GatherKey(0, outs, key, &tally, dst[:0])
						sum, dst = sum+v, grown
					}
				}
				tally.Flush()
				perLookup(b)
				if sum == -1 {
					b.Log(sum) // keeps the values read
				}
			})
			for _, counted := range []string{"counters", "tally"} {
				// pass looks every key up once, starting at the caller's own
				// place in the list.
				pass := func(at int, buf Tuple, bind []Binding, tally *Tally) {
					yield := func(Tuple) bool { return true }
					for i := range probe {
						bind[0] = Binding{Col: 0, Val: probe[(at+i)&(len(probe)-1)]}
						if counted == "tally" {
							rel.LookupTally(bind, buf, tally, yield)
						} else {
							rel.LookupBuf(bind, buf, yield)
						}
					}
				}
				name := shape + "/" + keys + "/" + counted
				b.Run(name+"/serial", func(b *testing.B) {
					buf, bind, tally := make(Tuple, 2), make([]Binding, 1), stats.Tally()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pass(0, buf, bind, &tally)
					}
					tally.Flush()
					perLookup(b)
				})
				b.Run(name+"/parallel", func(b *testing.B) {
					b.ReportAllocs()
					b.RunParallel(func(pb *testing.PB) {
						buf, bind, tally := make(Tuple, 2), make([]Binding, 1), stats.Tally()
						for at := rand.Int(); pb.Next(); {
							pass(at, buf, bind, &tally)
						}
						tally.Flush()
					})
					perLookup(b)
				})
			}
		}
	}
}

// BenchmarkIndexedInsert inserts 100 000 distinct tuples into a relation
// whose two column directories are built, so every insert also posts the
// row twice: the write path's share of the posting layout.
func BenchmarkIndexedInsert(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(3))
	seen := NewRelation(2, nil)
	tuples := make([]Tuple, 0, n)
	for len(tuples) < n {
		if t := (Tuple{Value(rng.Intn(n / 4)), Value(rng.Intn(n / 4))}); seen.Insert(t) {
			tuples = append(tuples, t)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel := NewRelation(2, nil)
		rel.Lookup([]Binding{{Col: 0, Val: 0}, {Col: 1, Val: 0}}, func(Tuple) bool { return true })
		for _, t := range tuples {
			rel.Insert(t)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/insert")
}

// BenchmarkDirectoryBuild builds column 0's posting directory in bulk from
// the rows of both graph shapes — what the first restricted lookup of a
// loaded relation pays, and a lookup after tombstone compaction again: two
// passes over the rows, one table that doubles as the keys come in, one
// allocation for every run.
func BenchmarkDirectoryBuild(b *testing.B) {
	for _, shape := range []string{"digraph", "chain"} {
		rel, _, _ := benchGraph(shape, 1)
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := rel.store
				st.mu.Lock()
				st.cols[0].Store(st.buildDirectory(0, 0, st.rows))
				st.mu.Unlock()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.Len()), "ns/row")
		})
	}
}

// BenchmarkIntern interns 64-name batches, as a /v1/facts body or a
// parsed program does: names the table has (the read-locked pass finds all
// of them) and names it has not (each is hashed twice, copied into the
// text and indexed; the table starts empty every op, so the index's
// doublings are in). One op is 65 536 names.
func BenchmarkIntern(b *testing.B) {
	const n, batch = 1 << 16, 64
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i*7919)
	}
	dst := make([]Value, batch)
	pass := func(st *SymbolTable) {
		for at := 0; at < n; at += batch {
			st.InternBatch(names[at:at+batch], dst)
		}
	}
	perName := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/name")
	}
	b.Run("hit", func(b *testing.B) {
		st := NewSymbolTable()
		pass(st)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(st)
		}
		perName(b)
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pass(NewSymbolTable())
		}
		perName(b)
	})
}
