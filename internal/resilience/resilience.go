// Package resilience is the storage stack's one self-healing I/O
// layer: a wrapper over a context-aware NodeIO (chaos.CtxIO) that
// bounds each column operation by a deadline, retries it with jittered exponential
// backoff, and races stragglers with a hedged second read — plus the
// per-node health state machine (Health) those retries report into.
//
// The paper's contract keeps the layer's job small: a node that cannot
// serve a column is an erasure the code decodes around, so per column
// the only decision is "bytes, or erasure". The wrapper is
// transport-agnostic — the store composes it over an in-process fault
// injector, the network client over its raw socket transport — and
// takes no mode: what differs between compositions is what the inner
// returns and the Policy values.
//
// Error table (each sentinel lives beside the NodeIO contract in
// package chaos):
//
//	sentinel                  retried?  Health.Fail?
//	chaos.ErrColumnMissing    no        no   nothing was stored: a plain erasure
//	chaos.ErrNodeUnavailable  no        no   the inner says the node is down
//	chaos.ErrInvalid          no        no   the request itself is wrong
//	chaos.ErrTransient        yes       yes
//	chaos.ErrTimeout          yes       yes  (the op deadline ends the loop)
//	anything else             yes       yes
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// Policy tunes the wrapper. Zero fields take the owner's defaults (see
// WithDefaults): µs-scale for the in-process store, ms-scale on the
// wire.
type Policy struct {
	// MaxAttempts bounds tries per column operation.
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up
	// to MaxBackoff, each delay jittered into [d/2, d).
	BaseBackoff, MaxBackoff time.Duration
	// HedgeDelay is how long a read waits before a second (hedged)
	// attempt races the first; the first success wins and the loser is
	// cancelled. Negative disables hedging.
	HedgeDelay time.Duration
	// OpDeadline bounds one operation including retries, backoff and
	// hedges, when the caller's context has no deadline of its own.
	OpDeadline time.Duration
	// Seed seeds the jitter PRNG (reproducible backoff schedules).
	Seed int64
}

// WithDefaults fills every unset field from def. A negative HedgeDelay
// is a setting (hedging off) and stays; so does Seed.
func (p Policy) WithDefaults(def Policy) Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.HedgeDelay == 0 {
		p.HedgeDelay = def.HedgeDelay
	}
	if p.OpDeadline <= 0 {
		p.OpDeadline = def.OpDeadline
	}
	return p
}

// Metrics are the counters the wrapper feeds; the owner passes its own
// handles in (nil handles are no-ops).
type Metrics struct {
	// Retries counts attempts after the first.
	Retries *obs.Counter
	// Hedges counts hedged second reads launched, HedgeWins those that
	// answered first.
	Hedges, HedgeWins *obs.Counter
	// ReadErrors counts failed, retryable read attempts.
	ReadErrors *obs.Counter
}

// IO is the wrapper: a chaos.CtxIO over an inner one. Safe for
// concurrent use.
type IO struct {
	inner chaos.CtxIO
	p     Policy
	h     *Health
	m     Metrics

	rngMu sync.Mutex
	rng   *rand.Rand
	// sleep waits out one backoff delay or the context; tests replace it.
	sleep func(context.Context, time.Duration) error
}

// Wrap puts the retry/hedge stack in front of inner, which gets the
// operation's deadline and a hedge loser's cancellation through its
// contexts (an inner that ignores them cannot be cut short). The policy
// is used as given: fill the owner's defaults with WithDefaults first.
// The wrapper reports every failed attempt to h and stops retrying a
// node that report just failed; gating requests on h.Allow and
// reporting successes with h.OK stay with h's owner, which must do both
// even where no wrapper is composed (a store over a bare backend).
func Wrap(inner chaos.CtxIO, p Policy, h *Health, m Metrics) *IO {
	return &IO{inner: inner, p: p, h: h, m: m,
		rng: rand.New(rand.NewSource(p.Seed)), sleep: pause}
}

// permanent reports whether retrying err is pointless. These are also
// the health-neutral errors: none of them says the node misbehaved.
func permanent(err error) bool {
	return errors.Is(err, chaos.ErrColumnMissing) ||
		errors.Is(err, chaos.ErrNodeUnavailable) ||
		errors.Is(err, chaos.ErrInvalid)
}

// Jitter draws a delay in [d/2, d) from the wrapper's seeded PRNG.
func (w *IO) Jitter(d time.Duration) time.Duration {
	if d < 2 {
		return d
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return d/2 + time.Duration(w.rng.Int63n(int64(d-d/2)))
}

func pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// opContext bounds an operation by OpDeadline when the caller's context
// has no deadline of its own.
func (w *IO) opContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && w.p.OpDeadline > 0 {
		return context.WithTimeout(ctx, w.p.OpDeadline)
	}
	return ctx, func() {}
}

// backOff sleeps one jittered step of the backoff schedule and advances
// it; false means no attempt can follow (the deadline would pass during
// the sleep, or the context ended it).
func (w *IO) backOff(ctx context.Context, backoff *time.Duration) bool {
	d := w.Jitter(*backoff)
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	if w.sleep(ctx, d) != nil {
		return false
	}
	w.m.Retries.Inc()
	*backoff = min(2**backoff, w.p.MaxBackoff)
	return true
}

// timedOut folds an expired context into err, so the caller sees
// chaos.ErrTimeout whatever the last attempt happened to fail with.
func timedOut(ctx context.Context, node int, err error) error {
	if cerr := ctx.Err(); cerr != nil && !errors.Is(err, chaos.ErrTimeout) {
		return fmt.Errorf("%w: node %d: %w (%w)", chaos.ErrTimeout, node, err, cerr)
	}
	return err
}

// run is the operation runner: op deadline, then bounded attempts of
// leg with jittered backoff between them; reads are hedged.
func (w *IO) run(ctx context.Context, node int, read bool, leg func(context.Context) ([]byte, error)) ([]byte, error) {
	ctx, cancel := w.opContext(ctx)
	defer cancel()
	backoff := w.p.BaseBackoff
	var err error
	for attempt := 1; ; attempt++ {
		var data []byte
		if read && w.p.HedgeDelay > 0 {
			data, err = w.hedged(ctx, leg)
		} else {
			data, err = leg(ctx)
		}
		if err == nil || permanent(err) {
			return data, err
		}
		if read {
			w.m.ReadErrors.Inc()
		}
		if w.h.Fail(node) == Failed || attempt >= w.p.MaxAttempts || !w.backOff(ctx, &backoff) {
			break
		}
	}
	return nil, timedOut(ctx, node, err)
}

// RetryColumns is the runner for a batched write (chaos.BatchWriter):
// send is one attempt at the columns it is given and answers like
// WriteColumnsCtx. The batch is one operation — one deadline, one
// backoff schedule — retried as a unit, except that each retry carries
// only the columns still failing with something a retry can fix: per
// column the outcome is what WriteColumnCtx would have produced.
func (w *IO) RetryColumns(ctx context.Context, writes []chaos.ColumnWrite,
	send func(context.Context, []chaos.ColumnWrite) []error) []error {
	ctx, cancel := w.opContext(ctx)
	defer cancel()
	backoff := w.p.BaseBackoff
	var errs []error // the result, allocated by the first failure
	pending := writes
	var at []int // pending[i] is writes[at[i]]; nil on the first attempt, when they are the same
	for attempt := 1; ; attempt++ {
		res := send(ctx, pending)
		if res == nil && errs == nil {
			return nil
		}
		if errs == nil {
			errs = make([]error, len(writes))
		}
		var again []chaos.ColumnWrite
		var againAt []int
		for i, cw := range pending {
			j := i
			if at != nil {
				j = at[i]
			}
			errs[j] = chaos.ErrAt(res, i)
			if errs[j] == nil {
				continue
			}
			if !permanent(errs[j]) && w.h.Fail(cw.Node) != Failed {
				again = append(again, cw)
				againAt = append(againAt, j)
			}
		}
		if len(again) == 0 {
			return errs
		}
		pending, at = again, againAt
		if attempt >= w.p.MaxAttempts || !w.backOff(ctx, &backoff) {
			break
		}
	}
	for i, j := range at {
		errs[j] = timedOut(ctx, pending[i].Node, errs[j])
	}
	return errs
}

// hedged runs one read attempt as a race: if the primary leg has not
// answered within HedgeDelay a backup leg starts, and the first success
// wins. A leg that fails while the other is still in flight does not
// end the race — the survivor may yet answer. Returning cancels the
// loser's context; a loser whose inner ignores it runs on until the
// inner returns.
func (w *IO) hedged(ctx context.Context, leg func(context.Context) ([]byte, error)) ([]byte, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		data   []byte
		err    error
		backup bool
	}
	ch := make(chan result, 2) // one slot per leg: a loser never blocks on send
	launch := func(backup bool) {
		go func() {
			data, err := leg(ctx)
			ch <- result{data, err, backup}
		}()
	}
	launch(false)
	timer := time.NewTimer(w.p.HedgeDelay)
	defer timer.Stop()
	inFlight, hedged := 1, false
	var firstErr error
	for {
		select {
		case r := <-ch:
			inFlight--
			if r.err == nil {
				if r.backup {
					w.m.HedgeWins.Inc()
				}
				return r.data, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged || inFlight == 0 {
				// The primary failed before the hedge fired (fail fast
				// and let the retry loop decide), or both legs failed.
				return nil, firstErr
			}
		case <-timer.C:
			hedged = true
			inFlight++
			w.m.Hedges.Inc()
			launch(true)
		case <-ctx.Done():
			// The deadline (or the caller) ended the race. Legs that
			// honour their context are on their way out; one that
			// ignores it is abandoned here.
			return nil, fmt.Errorf("%w: %w", chaos.ErrTimeout, ctx.Err())
		}
	}
}

// ReadColumnCtx implements chaos.CtxIO.
func (w *IO) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	return w.run(ctx, node, true, func(ctx context.Context) ([]byte, error) {
		return w.inner.ReadColumnCtx(ctx, node, object, stripe)
	})
}

// ReadColumnAtCtx implements chaos.CtxIO.
func (w *IO) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	return w.run(ctx, node, true, func(ctx context.Context) ([]byte, error) {
		return w.inner.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
	})
}

// WriteColumnCtx implements chaos.CtxIO. Writes are never hedged: two
// racing writes of one column are harmless (same payload) but wasteful.
func (w *IO) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	_, err := w.run(ctx, node, false, func(ctx context.Context) ([]byte, error) {
		return nil, w.inner.WriteColumnCtx(ctx, node, object, stripe, data)
	})
	return err
}
