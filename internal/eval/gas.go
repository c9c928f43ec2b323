package eval

import (
	"context"
	"errors"
	"sync/atomic"
)

// This file is the resource-governance hook of the evaluation layer: a
// derived-fact "gas" meter the fixpoint drivers decrement as they derive
// tuples. The related Mangle engine bounds derivation with a
// DerivedFactsLimit checked around its evaluation; here the counter is
// checked INSIDE the loops — the Fig. 9 carry loop, the semi-naive delta
// rounds and the incremental-maintenance frontier of the served plans,
// and the naive and Counting baselines' rounds — at batch granularity,
// so a runaway recursion aborts after at most one extra batch of work
// instead of after materializing everything.
//
// The meter travels in the context rather than in plan or strategy
// state: plans are shared across queries (and tenants), while gas is a
// per-request budget. Strategies that derive nothing beyond an indexed
// lookup (edb) do not meter; everything that runs a fixpoint does.

// ErrGasExhausted is returned by an evaluation whose derived-tuple count
// exceeded the gas budget carried in its context. It aborts the fixpoint
// cleanly — retained incremental state is poisoned exactly as for a
// cancellation — and is the typed signal a serving layer maps to
// "too many requests" rather than "timeout".
var ErrGasExhausted = errors.New("eval: derived-fact gas exhausted")

// Meter is a shared, concurrency-safe gas budget: a derived-tuple
// allowance decremented by the fixpoint loops. A nil *Meter means
// unlimited and every method is a no-op, so call sites charge
// unconditionally.
type Meter struct {
	remaining atomic.Int64
}

// NewMeter returns a meter with the given derived-tuple budget. A
// non-positive limit means unlimited (nil).
func NewMeter(limit int64) *Meter {
	if limit <= 0 {
		return nil
	}
	m := &Meter{}
	m.remaining.Store(limit)
	return m
}

// Charge deducts n derived tuples from the budget, returning
// ErrGasExhausted once the budget is spent. Exhaustion latches: the
// balance never recovers, so concurrent evaluations sharing a meter and
// observing it at different times agree on the verdict.
func (m *Meter) Charge(n int) error {
	if m == nil || n <= 0 {
		return nil
	}
	if m.remaining.Add(-int64(n)) < 0 {
		return ErrGasExhausted
	}
	return nil
}

// Exhausted reports whether the budget is spent without charging.
func (m *Meter) Exhausted() bool {
	return m != nil && m.remaining.Load() < 0
}

// Remaining returns the unspent budget (never negative; 0 when
// exhausted). On a nil meter it returns -1, meaning unlimited.
func (m *Meter) Remaining() int64 {
	if m == nil {
		return -1
	}
	if r := m.remaining.Load(); r > 0 {
		return r
	}
	return 0
}

// meterKey is the context key for the request's gas meter.
type meterKey struct{}

// WithMeter returns a context carrying the meter; evaluations started
// under it charge their derived tuples against it. A nil meter returns
// ctx unchanged.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, meterKey{}, m)
}

// MeterFrom extracts the gas meter from the context (nil — unlimited —
// when none was attached).
func MeterFrom(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
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
