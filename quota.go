package onesided

import (
	"context"
	"errors"
	"time"

	"repro/internal/eval"
)

// Quota bounds what one tenant may demand of an engine. The engine
// enforces the first two bounds itself; MaxDeadline is enforced by
// serving layers (internal/server caps each request's deadline with it)
// because the engine never invents deadlines — it only honors the
// context it is given. Zero fields mean unlimited.
type Quota struct {
	// MaxFacts caps the database's total stored tuples: InsertFact (and
	// the server's /v1/facts ingest) rejects inserts once TupleCount
	// reaches it.
	MaxFacts int64
	// MaxDerived is the per-query derived-fact "gas" budget: every
	// fixpoint evaluation under this engine charges the tuples it derives
	// (seen-set contexts plus answers) against it, checked once per carry
	// batch / semi-naive round, and aborts with ErrGasExhausted when the
	// budget is spent. A caller-supplied meter (WithGas) takes precedence.
	MaxDerived int64
	// MaxDeadline caps the evaluation deadline a serving layer grants a
	// request from this tenant.
	MaxDeadline time.Duration
	// MaxSubscriptions caps concurrently open standing queries: as an
	// engine quota it gates Subscribe itself; per-tenant, the server
	// counts each tenant's open /v1/subscribe streams against it.
	MaxSubscriptions int
}

// ErrGasExhausted is returned by a query whose evaluation derived more
// tuples than its gas budget (WithQuota's MaxDerived or WithGas) allows.
// The fixpoint aborts cleanly between batches; the engine and its caches
// remain fully serviceable. errors.Is-match it to distinguish a resource
// abort (HTTP 429 territory) from a deadline (504).
var ErrGasExhausted = eval.ErrGasExhausted

// ErrFactLimitExceeded is returned by the insert entry points (Apply and
// everything built on it) when the database already holds the quota's
// MaxFacts tuples.
var ErrFactLimitExceeded = errors.New("onesided: fact limit exceeded")

// ErrReadOnly is returned by the write entry points on a read-only engine
// — a replication follower, whose only legitimate mutation source is the
// primary's log stream. Serving layers map it to a redirect pointing
// writers at the primary.
var ErrReadOnly = errors.New("onesided: engine is read-only (follower)")

// WithQuota sets the engine's default resource quota: MaxFacts gates
// InsertFact, and MaxDerived attaches a fresh gas meter to every query
// whose context does not already carry one. Serving layers with
// per-tenant budgets attach their own meters via WithGas, which win.
func WithQuota(q Quota) Option {
	return func(c *engineConfig) { c.quota = q }
}

// WithGas returns a context carrying a fresh derived-fact budget for the
// evaluations started under it: fixpoint loops charge each batch of
// derived tuples against the budget and abort with ErrGasExhausted when
// it is spent. maxDerived <= 0 leaves ctx unchanged (unlimited). One
// meter governs everything evaluated under the returned context — a
// batch of queries sharing it shares the budget.
func WithGas(ctx context.Context, maxDerived int64) context.Context {
	return eval.WithMeter(ctx, eval.NewMeter(maxDerived))
}

// GasRemaining reports the unspent derived-fact budget of a context
// produced by WithGas (0 when exhausted, -1 when the context carries no
// budget).
func GasRemaining(ctx context.Context) int64 {
	return eval.MeterFrom(ctx).Remaining()
}

// Quota returns the engine's default quota (zero value when none was
// configured).
func (e *Engine) Quota() Quota { return e.quota }

// InsertFact inserts one fact — InsertFacts of a batch of one, with its
// admission control: ErrFactLimitExceeded once the database holds the
// quota's MaxFacts tuples, ErrReadOnly on a follower, ErrArityMismatch
// for the wrong argument count — and otherwise reports whether the
// tuple was genuinely new.
func (e *Engine) InsertFact(pred string, consts ...string) (bool, error) {
	n, err := e.InsertFacts([]Fact{{Pred: pred, Args: consts}})
	return n == 1, err
}

// withGasCtx attaches the engine's default gas budget to ctx unless the
// caller already supplied a meter (a serving layer's per-tenant budget
// takes precedence over the engine default).
func (e *Engine) withGasCtx(ctx context.Context) context.Context {
	if e.quota.MaxDerived <= 0 || eval.MeterFrom(ctx) != nil {
		return ctx
	}
	return WithGas(ctx, e.quota.MaxDerived)
}
