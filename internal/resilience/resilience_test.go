package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// call is one scripted reply of the fake inner NodeIO.
type call struct {
	delay time.Duration // served before answering; cut short by the context
	err   error
}

// script is a fake inner NodeIO: the i-th call (of any kind) gets the
// i-th scripted reply, calls past the end succeed with column.
type script struct {
	mu      sync.Mutex
	replies []call
	calls   []string          // kind of each call, in arrival order
	ctxs    []context.Context // context of each call
	column  []byte            // what a successful read returns
	done    chan struct{}     // receives once per finished call
}

func newScript(replies ...call) *script {
	return &script{replies: replies, column: []byte("0123456789"),
		done: make(chan struct{}, 64)} // sized past any test's call count
}

func (s *script) serve(ctx context.Context, kind string) ([]byte, error) {
	s.mu.Lock()
	i := len(s.calls)
	s.calls = append(s.calls, kind)
	s.ctxs = append(s.ctxs, ctx)
	var c call
	if i < len(s.replies) {
		c = s.replies[i]
	}
	s.mu.Unlock()
	defer func() { s.done <- struct{}{} }()
	if c.delay > 0 {
		t := time.NewTimer(c.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, fmt.Errorf("script: cut short: %w", ctx.Err())
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return s.column, nil
}

func (s *script) kinds() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.calls...)
}

// ctxIO exposes the script as the chaos.CtxIO the wrapper wraps.
type ctxIO struct{ s *script }

func (c ctxIO) ReadColumnCtx(ctx context.Context, _ int, _ string, _ int) ([]byte, error) {
	return c.s.serve(ctx, "read")
}
func (c ctxIO) ReadColumnAtCtx(ctx context.Context, _ int, _ string, _ int, off, n int) ([]byte, error) {
	col, err := c.s.serve(ctx, "readat")
	if err != nil {
		return nil, err
	}
	return col[off : off+n], nil
}
func (c ctxIO) WriteColumnCtx(ctx context.Context, _ int, _ string, _ int, _ []byte) error {
	_, err := c.s.serve(ctx, "write")
	return err
}

type counters struct {
	m                                      Metrics
	retries, hedges, hedgeWins, readErrors *obs.Counter
}

func newCounters() counters {
	reg := obs.NewRegistry(false)
	c := counters{retries: reg.Counter("r"), hedges: reg.Counter("h"),
		hedgeWins: reg.Counter("w"), readErrors: reg.Counter("e")}
	c.m = Metrics{Retries: c.retries, Hedges: c.hedges, HedgeWins: c.hedgeWins, ReadErrors: c.readErrors}
	return c
}

func lenientHealth() *Health {
	return NewHealth(HealthPolicy{SuspectAfter: 100, FailAfter: 1000, ProbationOK: 1})
}

var (
	errBoom = errors.New("boom")
	bg      = context.Background()
)

func noHedge() Policy {
	return Policy{MaxAttempts: 4, BaseBackoff: 8 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		OpDeadline: 5 * time.Second, Seed: 42}
}

// recordSleeps replaces the wrapper's backoff sleep with a recorder.
func recordSleeps(w *IO) *[]time.Duration {
	var slept []time.Duration
	w.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	return &slept
}

// TestRetryBoundsAndBackoff: a node that always errors gets exactly
// MaxAttempts tries, each backoff drawn from [d/2, d) of the doubling,
// capped schedule, the same draws for the same Seed; every failed
// attempt is reported to the health FSM.
func TestRetryBoundsAndBackoff(t *testing.T) {
	run := func() ([]time.Duration, []string, counters, *Health, error) {
		s := newScript(call{err: errBoom}, call{err: chaos.ErrTransient}, call{err: errBoom}, call{err: errBoom}, call{err: errBoom})
		c := newCounters()
		h := NewHealth(HealthPolicy{SuspectAfter: 4, FailAfter: 100, ProbationOK: 1})
		w := Wrap(ctxIO{s}, noHedge(), h, c.m)
		slept := recordSleeps(w)
		_, err := w.ReadColumnCtx(bg, 3, "o", 0)
		return *slept, s.kinds(), c, h, err
	}
	slept, kinds, c, h, err := run()
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want the last attempt's error", err)
	}
	if len(kinds) != 4 {
		t.Fatalf("%d attempts, want MaxAttempts=4", len(kinds))
	}
	nominal := []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(nominal) {
		t.Fatalf("slept %v, want %d backoffs", slept, len(nominal))
	}
	for i, d := range nominal {
		if slept[i] < d/2 || slept[i] >= d {
			t.Fatalf("backoff %d = %v outside [%v, %v)", i, slept[i], d/2, d)
		}
	}
	if again, _, _, _, _ := run(); !reflect.DeepEqual(again, slept) {
		t.Fatalf("same Seed, different backoffs: %v vs %v", again, slept)
	}
	if got := c.retries.Value(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if got := c.readErrors.Value(); got != 4 {
		t.Fatalf("read errors = %d, want 4", got)
	}
	if got := h.State(3); got != Suspect {
		t.Fatalf("node 3 is %v after 4 reported failures, want suspect", got)
	}
}

// TestPermanentErrorsAreNotRetried: the three sentinels that say
// "retrying cannot help" end the operation at once and leave the
// health FSM alone.
func TestPermanentErrorsAreNotRetried(t *testing.T) {
	for _, sentinel := range []error{chaos.ErrColumnMissing, chaos.ErrNodeUnavailable, chaos.ErrInvalid} {
		s := newScript(call{err: fmt.Errorf("wrapped: %w", sentinel)})
		c := newCounters()
		h := NewHealth(HealthPolicy{SuspectAfter: 1, FailAfter: 1, ProbationOK: 1})
		w := Wrap(ctxIO{s}, noHedge(), h, c.m)
		slept := recordSleeps(w)
		for _, op := range []func() error{
			func() error { _, err := w.ReadColumnCtx(bg, 0, "o", 0); return err },
			func() error { return w.WriteColumnCtx(bg, 0, "o", 0, nil) },
		} {
			s.mu.Lock()
			s.calls, s.ctxs = nil, nil
			s.mu.Unlock()
			if err := op(); !errors.Is(err, sentinel) {
				t.Fatalf("%v: got %v", sentinel, err)
			}
			if n := len(s.kinds()); n != 1 {
				t.Fatalf("%v: %d attempts, want 1", sentinel, n)
			}
		}
		if len(*slept) != 0 || c.retries.Value() != 0 || c.readErrors.Value() != 0 {
			t.Fatalf("%v: slept %v, retries %d, read errors %d", sentinel, *slept, c.retries.Value(), c.readErrors.Value())
		}
		if h.State(0) != Healthy {
			t.Fatalf("%v: penalised the node (%v)", sentinel, h.State(0))
		}
	}
}

// TestStopsWhenHealthFails: the attempt whose report fails the node is
// the last one.
func TestStopsWhenHealthFails(t *testing.T) {
	s := newScript(call{err: errBoom}, call{err: errBoom}, call{err: errBoom}, call{err: errBoom})
	h := NewHealth(HealthPolicy{SuspectAfter: 1, FailAfter: 2, ProbationOK: 1})
	w := Wrap(ctxIO{s}, noHedge(), h, Metrics{})
	recordSleeps(w)
	if err := w.WriteColumnCtx(bg, 5, "o", 0, []byte("x")); !errors.Is(err, errBoom) {
		t.Fatalf("got %v", err)
	}
	if n := len(s.kinds()); n != 2 {
		t.Fatalf("%d attempts, want 2 (FailAfter)", n)
	}
	if h.State(5) != Failed {
		t.Fatalf("node 5 is %v", h.State(5))
	}
}

// TestOpDeadline: an inner that stalls is cut off at OpDeadline (its
// context expires), the error says so three ways, and a caller's own
// deadline takes precedence over the policy's.
func TestOpDeadline(t *testing.T) {
	p := noHedge()
	p.OpDeadline = 40 * time.Millisecond
	s := newScript(call{delay: time.Hour})
	w := Wrap(ctxIO{s}, p, lenientHealth(), Metrics{})
	t0 := time.Now()
	err := w.WriteColumnCtx(bg, 0, "o", 0, nil)
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("took %v, OpDeadline is %v", el, p.OpDeadline)
	}
	if !errors.Is(err, chaos.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrTimeout wrapping context.DeadlineExceeded", err)
	}
	if n := len(s.kinds()); n != 1 {
		t.Fatalf("%d attempts inside one exhausted deadline, want 1", n)
	}

	p.OpDeadline = time.Hour
	s = newScript(call{delay: time.Hour})
	w = Wrap(ctxIO{s}, p, lenientHealth(), Metrics{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 = time.Now()
	if _, err := w.ReadColumnCtx(ctx, 0, "o", 0); !errors.Is(err, chaos.ErrTimeout) {
		t.Fatalf("caller deadline: got %v", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("caller deadline ignored: took %v", el)
	}
}

// TestBackoffNeverOutlastsDeadline: when the next backoff would end
// past the deadline the loop stops instead of sleeping in vain.
func TestBackoffNeverOutlastsDeadline(t *testing.T) {
	p := noHedge()
	p.OpDeadline = 3 * time.Millisecond // below BaseBackoff/2
	s := newScript(call{err: errBoom}, call{err: errBoom})
	w := Wrap(ctxIO{s}, p, lenientHealth(), Metrics{})
	slept := recordSleeps(w)
	if _, err := w.ReadColumnAtCtx(bg, 0, "o", 0, 0, 1); !errors.Is(err, errBoom) {
		t.Fatalf("got %v", err)
	}
	if len(*slept) != 0 || len(s.kinds()) != 1 {
		t.Fatalf("slept %v over %d attempts", *slept, len(s.kinds()))
	}
}

// TestHedgeWinnerSurvivesFailedLeg is the regression test for the
// first-finisher rule: the primary errors after the hedge has fired
// while the backup is still in flight. The race must wait for the
// backup — one attempt, no retry, a hedge win — instead of returning
// the primary's error and discarding the read that would have worked.
func TestHedgeWinnerSurvivesFailedLeg(t *testing.T) {
	for _, partial := range []bool{false, true} {
		p := noHedge()
		p.HedgeDelay = 10 * time.Millisecond
		s := newScript(
			call{delay: 40 * time.Millisecond, err: errBoom}, // primary: errors after the hedge fired
			call{delay: 80 * time.Millisecond},               // backup: succeeds later still
		)
		c := newCounters()
		h := NewHealth(HealthPolicy{SuspectAfter: 1, FailAfter: 1, ProbationOK: 1})
		w := Wrap(ctxIO{s}, p, h, c.m)
		slept := recordSleeps(w)
		var data []byte
		var err error
		if partial {
			data, err = w.ReadColumnAtCtx(bg, 0, "o", 0, 2, 3)
		} else {
			data, err = w.ReadColumnCtx(bg, 0, "o", 0)
		}
		if err != nil {
			t.Fatalf("partial=%v: read failed despite a successful backup: %v", partial, err)
		}
		if want := map[bool]string{false: "0123456789", true: "234"}[partial]; string(data) != want {
			t.Fatalf("partial=%v: got %q, want %q", partial, data, want)
		}
		if c.retries.Value() != 0 || len(*slept) != 0 {
			t.Fatalf("partial=%v: burned a retry (retries %d, slept %v)", partial, c.retries.Value(), *slept)
		}
		if c.hedges.Value() != 1 || c.hedgeWins.Value() != 1 {
			t.Fatalf("partial=%v: hedges %d, hedge wins %d, want 1 and 1", partial, c.hedges.Value(), c.hedgeWins.Value())
		}
		if h.State(0) != Healthy {
			t.Fatalf("partial=%v: a won race penalised the node", partial)
		}
	}
}

// TestHedgeLoserCancelledNoGoroutineLeft: a straggling primary loses to
// the backup; by the time the read returns the loser's context is
// cancelled, and both leg goroutines exit.
func TestHedgeLoserCancelledNoGoroutineLeft(t *testing.T) {
	before := runtime.NumGoroutine()
	p := noHedge()
	p.HedgeDelay = 5 * time.Millisecond
	s := newScript(call{delay: time.Hour}, call{})
	c := newCounters()
	w := Wrap(ctxIO{s}, p, lenientHealth(), c.m)
	if _, err := w.ReadColumnCtx(bg, 0, "o", 0); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	loser := s.ctxs[0]
	s.mu.Unlock()
	if loser.Err() == nil {
		t.Fatal("read returned with the losing leg's context still live")
	}
	if c.hedgeWins.Value() != 1 {
		t.Fatalf("hedge wins %d, want 1", c.hedgeWins.Value())
	}
	// Both legs report in once they have returned; their goroutines end
	// right after.
	<-s.done
	<-s.done
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the read, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestPrimaryFailingBeforeHedgeFailsFast: no backup is launched for an
// attempt that has already failed; the retry loop takes over.
func TestPrimaryFailingBeforeHedgeFailsFast(t *testing.T) {
	p := noHedge()
	p.HedgeDelay = time.Hour
	s := newScript(call{err: errBoom})
	c := newCounters()
	w := Wrap(ctxIO{s}, p, lenientHealth(), c.m)
	recordSleeps(w)
	if _, err := w.ReadColumnCtx(bg, 0, "o", 0); err != nil {
		t.Fatal(err)
	}
	if c.hedges.Value() != 0 || c.retries.Value() != 1 || len(s.kinds()) != 2 {
		t.Fatalf("hedges %d retries %d calls %v", c.hedges.Value(), c.retries.Value(), s.kinds())
	}
}

func TestPolicyDefaults(t *testing.T) {
	def := Policy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Second,
		HedgeDelay: 2 * time.Millisecond, OpDeadline: time.Minute}
	if got := (Policy{Seed: 9}).WithDefaults(def); got != (Policy{MaxAttempts: 4, BaseBackoff: time.Millisecond,
		MaxBackoff: time.Second, HedgeDelay: 2 * time.Millisecond, OpDeadline: time.Minute, Seed: 9}) {
		t.Fatalf("zero policy: %+v", got)
	}
	if got := (Policy{HedgeDelay: -1}).WithDefaults(def); got.HedgeDelay >= 0 {
		t.Fatalf("negative HedgeDelay (hedging off) was overwritten: %v", got.HedgeDelay)
	}
}

// TestRetryColumns scripts a batched write through the runner: each
// retry carries only the columns still failing with something a retry
// can fix, a permanent error and a node the report just failed drop out,
// the attempt bound ends the loop, and every column ends with the
// outcome a single write would have had.
func TestRetryColumns(t *testing.T) {
	transient := fmt.Errorf("%w: flaky", chaos.ErrTransient)
	invalid := fmt.Errorf("%w: no such column", chaos.ErrInvalid)
	writes := make([]chaos.ColumnWrite, 5)
	for i := range writes {
		writes[i] = chaos.ColumnWrite{Node: i, Stripe: 0, Data: []byte{byte(i)}}
	}
	// What each attempt answers, by node: nodes 1 and 3 need two and
	// three tries, node 2 is refused for good, node 4 never recovers.
	answers := []map[int]error{
		{1: transient, 2: invalid, 3: transient, 4: transient},
		{3: transient, 4: transient},
		{4: transient},
		{4: errBoom},
	}
	var sent [][]int
	send := func(_ context.Context, pending []chaos.ColumnWrite) []error {
		var nodes []int
		errs := make([]error, len(pending))
		for i, w := range pending {
			nodes = append(nodes, w.Node)
			errs[i] = answers[len(sent)][w.Node]
		}
		sent = append(sent, nodes)
		return errs
	}
	c := newCounters()
	w := Wrap(ctxIO{newScript()}, Policy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond, OpDeadline: time.Second}, lenientHealth(), c.m)
	errs := w.RetryColumns(bg, writes, send)
	if want := [][]int{{0, 1, 2, 3, 4}, {1, 3, 4}, {3, 4}, {4}}; !reflect.DeepEqual(sent, want) {
		t.Fatalf("attempts carried %v, want %v", sent, want)
	}
	if errs[0] != nil || errs[1] != nil || errs[3] != nil || !errors.Is(errs[2], chaos.ErrInvalid) || !errors.Is(errs[4], errBoom) {
		t.Fatalf("outcomes: %v", errs)
	}
	if c.retries.Value() != 3 {
		t.Fatalf("retries = %d, want 3", c.retries.Value())
	}

	// All landing first time costs nothing: no result slice at all.
	if errs := w.RetryColumns(bg, writes, func(context.Context, []chaos.ColumnWrite) []error { return nil }); errs != nil {
		t.Fatalf("clean batch: %v", errs)
	}

	// A node the failure report just failed is not retried; the others
	// are.
	strict := NewHealth(HealthPolicy{SuspectAfter: 1, FailAfter: 1, ProbationOK: 1})
	w = Wrap(ctxIO{newScript()}, Policy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond, OpDeadline: time.Second}, strict, Metrics{})
	attempts := 0
	errs = w.RetryColumns(bg, writes[:2], func(_ context.Context, pending []chaos.ColumnWrite) []error {
		attempts++
		return []error{transient, nil}[:len(pending)]
	})
	if attempts != 1 || !errors.Is(errs[0], chaos.ErrTransient) || errs[1] != nil {
		t.Fatalf("health-failed node: %d attempts, %v", attempts, errs)
	}

	// The op deadline ends the loop and marks what was still pending.
	w = Wrap(ctxIO{newScript()}, Policy{MaxAttempts: 100, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 5 * time.Millisecond, OpDeadline: 20 * time.Millisecond}, lenientHealth(), Metrics{})
	errs = w.RetryColumns(bg, writes[:1], func(ctx context.Context, pending []chaos.ColumnWrite) []error {
		<-ctx.Done()
		return []error{errBoom}
	})
	if !errors.Is(errs[0], chaos.ErrTimeout) || !errors.Is(errs[0], errBoom) {
		t.Fatalf("expired batch: %v", errs)
	}
}
