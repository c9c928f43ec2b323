package eval

import (
	"context"
	"sync"

	"repro/internal/storage"
)

// minParallelChunk is the smallest per-worker slice worth a goroutine:
// below it the dispatch overhead dominates the join work, so small carry
// batches (a chain's single-context levels in particular) run inline on
// the calling goroutine.
const minParallelChunk = 16

// parallelFor splits [0, n) into at most workers contiguous chunks of at
// least minParallelChunk items and runs fn(worker, lo, hi) for each, on
// its own goroutine when more than one chunk results. Worker ordinals are
// dense in [0, workers), each used at most once, so callers may index
// per-worker result slots by them. fn must be safe to run concurrently
// with itself on disjoint ranges; parallelFor returns when every chunk
// has finished.
func parallelFor(workers, n int, fn func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	if maxW := (n + minParallelChunk - 1) / minParallelChunk; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// expired is the cancellation poll of a loop that asks once per level or
// round: a non-blocking receive on done, ctx's Done channel captured when
// the loop started, and ctx.Err() only once that has fired — Err on a
// cancellable context takes its mutex, which a chain pays once per level.
func expired(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// tallies holds one evaluation's Property-3 probe counts while it runs:
// a storage.Tally of the database's Counters per worker ordinal —
// parallelFor's, or a semi-naive round's — so that a probe writes nothing
// another goroutine reads. Ordinal w's tally belongs to whichever
// goroutine is running worker w; the entries are padded apart like the
// level workers' scratch (scratchPad). The evaluation that made them adds
// them into the Counters once, when it ends, on every way out (flush):
// the totals are exact whenever no evaluation is in flight.
type tallies []struct {
	storage.Tally
	_ [scratchPad]byte
}

func newTallies(stats *storage.Counters, workers int) tallies {
	ts := make(tallies, workers)
	for i := range ts {
		ts[i].Tally = stats.Tally()
	}
	return ts
}

// of returns worker w's tally.
func (ts tallies) of(w int) *storage.Tally { return &ts[w].Tally }

func (ts tallies) flush() {
	for i := range ts {
		ts[i].Flush()
	}
}
