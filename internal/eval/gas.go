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

// pollWatchAfter is the number of polls a loop makes by select before
// it starts its watcher: a maintenance pass's rounds or a short query's
// levels end before it, and never start a goroutine.
const pollWatchAfter = 64

// always and never are the flags of a poll that has no watcher: always
// sends every poll to the slow path (poll.ask), never sends none — the
// poll of a context that has no Done.
var (
	always = func() *atomic.Bool { b := new(atomic.Bool); b.Store(true); return b }()
	never  = new(atomic.Bool)
)

// poll is the cancellation check of a loop that asks once per level or
// round. Per level it loads one flag, and it calls ctx.Err only once
// Done has closed: Err on a cancellable context takes its mutex, which a
// chain would pay once per level.
//
// The loop's first pollWatchAfter polls are a select on Done each, and
// the last of them starts a watcher: a goroutine that sets the flag when
// Done closes, and returns when the loop stops the poll. A Done that
// closes before that — or had closed before the loop started, which its
// first poll sees — makes every later poll ask Err, as a select on Done
// would. (context.AfterFunc would do without a watcher, but it panics on
// a context that closes Done while Err is still nil.)
type poll struct {
	ctx  context.Context
	done <-chan struct{}
	// flag is set when ask must run: it is always until the watcher
	// starts, and the watcher's from then on.
	flag *atomic.Bool
	// left counts the selects before the watcher starts; 0 once it has
	// started, or once Done has closed.
	left int
	quit chan struct{}
}

// newPoll returns the poll of a loop under ctx. The loop stops it when
// it ends.
func newPoll(ctx context.Context) poll {
	p := poll{ctx: ctx, done: ctx.Done(), flag: always, left: pollWatchAfter}
	if p.done == nil {
		p.flag = never
	}
	return p
}

// err is the poll of one level or round: ctx.Err once Done has closed,
// else nil.
func (p *poll) err() error {
	if p.flag.Load() {
		return p.ask()
	}
	return nil
}

// ask is a poll whose flag is set: a select on Done while the loop has
// made fewer than pollWatchAfter polls — the last of which starts the
// watcher — and ctx.Err once Done has closed.
func (p *poll) ask() error {
	if p.left > 0 {
		select {
		case <-p.done:
			p.left = 0
		default:
			if p.left--; p.left == 0 {
				p.watch()
			}
			return nil
		}
	}
	return p.ctx.Err()
}

// watch starts the watcher.
func (p *poll) watch() {
	flag, quit, done := new(atomic.Bool), make(chan struct{}), p.done
	go func() {
		select {
		case <-done:
			flag.Store(true)
		case <-quit:
		}
	}()
	p.flag, p.quit = flag, quit
}

// stop ends the watcher, if the loop started one.
func (p *poll) stop() {
	if p.quit != nil {
		close(p.quit)
	}
}
