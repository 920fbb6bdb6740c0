package store

import (
	"context"
	"fmt"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/resilience"
)

// RetryPolicy tunes the self-healing I/O path the store composes in
// front of a Config.WrapIO stack (see resilience.Policy for the
// fields). Zero fields default to 4 attempts, 200µs base / 5ms max
// backoff, a 2ms hedge delay (negative disables hedging) and a 500ms
// op deadline.
type RetryPolicy = resilience.Policy

var defaultRetry = RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 200 * time.Microsecond,
	MaxBackoff:  5 * time.Millisecond,
	HedgeDelay:  2 * time.Millisecond,
	OpDeadline:  500 * time.Millisecond,
}

// HealthPolicy tunes the per-node health state machine.
type HealthPolicy struct {
	// SuspectAfter consecutive I/O errors demote a healthy node to
	// suspect (default 3).
	SuspectAfter int
	// FailAfter consecutive I/O errors demote a node to failed
	// (default 10).
	FailAfter int
	// ProbationOK successful operations while suspect promote the node
	// back to healthy (default 5).
	ProbationOK int
}

// HealthState is a node's position in the health state machine the
// self-healing read path drives (see resilience.State).
type HealthState = resilience.State

// Health states.
const (
	HealthHealthy = resilience.Healthy
	HealthSuspect = resilience.Suspect
	HealthFailed  = resilience.Failed
)

// newHealth builds the store's tracker: a failed node stays failed
// until a repair resets it (no probe-through — ProbeAfter stays zero).
func newHealth(p HealthPolicy) *resilience.Health {
	return resilience.NewHealth(resilience.HealthPolicy{
		SuspectAfter: p.SuspectAfter, FailAfter: p.FailAfter, ProbationOK: p.ProbationOK,
	}.WithDefaults(resilience.HealthPolicy{SuspectAfter: 3, FailAfter: 10, ProbationOK: 5}))
}

// memIO is the store's in-memory DataNode backend — the innermost
// chaos.NodeIO that fault injectors wrap.
type memIO struct{ s *Store }

// ReadColumn returns the column stored on the node, ErrNodeUnavailable
// for crashed nodes, or errColumnMissing when nothing was stored.
func (m *memIO) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	if node < 0 || node >= len(m.s.nodes) {
		return nil, fmt.Errorf("%w: node %d out of range", ErrInvalid, node)
	}
	nd := m.s.nodes[node]
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	if nd.failed {
		return nil, fmt.Errorf("%w: node %d", ErrNodeUnavailable, node)
	}
	cols := nd.columns[object]
	// Zero-length counts as missing alongside nil: a tier demotion
	// deletes a column by storing nil, and a gob round-trip (snapshot
	// load) may decode that nil as an empty slice.
	if cols == nil || stripe < 0 || stripe >= len(cols) || len(cols[stripe]) == 0 {
		return nil, errColumnMissing
	}
	// Copy on the boundary: returning the backing slice would let any
	// caller-side mutation (a chaos corrupt rule, an in-place decode)
	// silently damage the stored column.
	return append([]byte(nil), cols[stripe]...), nil
}

// ReadColumnAt returns n bytes of the column starting at off — the
// partial-column read behind segment-granular degraded reads. It
// implements chaos.PartialReader so an injector wrapping this NodeIO
// passes partial reads straight through instead of falling back to a
// whole-column read.
func (m *memIO) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	if node < 0 || node >= len(m.s.nodes) {
		return nil, fmt.Errorf("%w: node %d out of range", ErrInvalid, node)
	}
	nd := m.s.nodes[node]
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	if nd.failed {
		return nil, fmt.Errorf("%w: node %d", ErrNodeUnavailable, node)
	}
	cols := nd.columns[object]
	if cols == nil || stripe < 0 || stripe >= len(cols) || len(cols[stripe]) == 0 {
		return nil, errColumnMissing
	}
	col := cols[stripe]
	if off < 0 || n < 0 || off+n > len(col) {
		return nil, fmt.Errorf("%w: range [%d,%d) outside column of %d bytes",
			ErrInvalid, off, off+n, len(col))
	}
	// Copy on the boundary, as for whole-column reads.
	return append([]byte(nil), col[off:off+n]...), nil
}

// WriteColumn stores a column on the node. It intentionally ignores the
// crash flag: repair writes provision the replacement node that
// inherits the failed index (callers that must not write to failed
// nodes check the flag themselves).
func (m *memIO) WriteColumn(node int, object string, stripe int, data []byte) error {
	if node < 0 || node >= len(m.s.nodes) {
		return fmt.Errorf("%w: node %d out of range", ErrInvalid, node)
	}
	nd := m.s.nodes[node]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	cols := nd.columns[object]
	for len(cols) <= stripe {
		cols = append(cols, nil)
	}
	// Copy on the boundary: retaining the caller's buffer would alias
	// the stored column to memory the caller may keep mutating.
	cols[stripe] = append([]byte(nil), data...)
	nd.columns[object] = cols
	return nil
}

// attemptIO is one attempt against the node I/O stack — the backend,
// under Config.WrapIO's injector or tap when one is set — with the
// store's per-attempt accounting: every call is an attempt, only a
// successful one moves bytes. It is a chaos.CtxIO whatever the stack
// below is: the context is passed on when the stack takes one.
type attemptIO struct {
	m  *storeMetrics
	io chaos.NodeIO
	// cio, pr and bw are the stack's optional extensions, nil when
	// absent: without cio or pr a partial read moves (and accounts) the
	// whole column; without bw a stripe's columns are written one call
	// at a time (see columnWriter).
	cio chaos.CtxIO
	pr  chaos.PartialReader
	bw  chaos.BatchWriter
}

func newAttemptIO(io chaos.NodeIO, m *storeMetrics) *attemptIO {
	a := &attemptIO{m: m, io: io}
	a.cio, _ = io.(chaos.CtxIO)
	a.pr, _ = io.(chaos.PartialReader)
	a.bw, _ = io.(chaos.BatchWriter)
	return a
}

func (a *attemptIO) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	t := a.m.nodeRead.Start()
	var data []byte
	var err error
	if a.cio != nil {
		data, err = a.cio.ReadColumnCtx(ctx, node, object, stripe)
	} else {
		data, err = a.io.ReadColumn(node, object, stripe)
	}
	t.Stop()
	a.m.readAttempts.Inc()
	if err == nil {
		a.m.readBytes.Add(int64(len(data)))
	}
	return data, err
}

func (a *attemptIO) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	t := a.m.nodeRead.Start()
	defer t.Stop()
	a.m.readAttempts.Inc()
	if a.cio == nil && a.pr == nil {
		col, err := a.io.ReadColumn(node, object, stripe)
		if err != nil {
			return nil, err
		}
		a.m.readBytes.Add(int64(len(col)))
		if off < 0 || n < 0 || off+n > len(col) {
			return nil, fmt.Errorf("%w: range [%d,%d) outside column of %d bytes",
				ErrInvalid, off, off+n, len(col))
		}
		// The range may be handed to the caller as a segment's bytes;
		// a subslice would keep the whole column alive behind it.
		return append([]byte(nil), col[off:off+n]...), nil
	}
	var data []byte
	var err error
	if a.cio != nil {
		data, err = a.cio.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
	} else {
		data, err = a.pr.ReadColumnAt(node, object, stripe, off, n)
	}
	if err == nil {
		a.m.partialReads.Inc()
		a.m.partialReadBytes.Add(int64(len(data)))
		a.m.readBytes.Add(int64(len(data)))
	}
	return data, err
}

func (a *attemptIO) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	t := a.m.nodeWrite.Start()
	var err error
	if a.cio != nil {
		err = a.cio.WriteColumnCtx(ctx, node, object, stripe, data)
	} else {
		err = a.io.WriteColumn(node, object, stripe, data)
	}
	t.Stop()
	a.m.writeAttempts.Inc()
	if err == nil {
		a.m.writeBytes.Add(int64(len(data)))
	}
	return err
}

// WriteColumnsCtx is one batched attempt (a.bw must be set): a single
// timed call, accounted per column exactly as the same columns written
// one by one would be.
func (a *attemptIO) WriteColumnsCtx(ctx context.Context, object string, writes []chaos.ColumnWrite) []error {
	t := a.m.nodeWrite.Start()
	errs := a.bw.WriteColumnsCtx(ctx, object, writes)
	t.Stop()
	a.m.writeAttempts.Add(int64(len(writes)))
	for i, w := range writes {
		if chaos.ErrAt(errs, i) == nil {
			a.m.writeBytes.Add(int64(len(w.Data)))
		}
	}
	return errs
}

// readGate refuses a read the store already knows is an erasure.
func (s *Store) readGate(node int) error {
	if !s.health.Allow(node) {
		return fmt.Errorf("%w: node %d health-failed", ErrNodeUnavailable, node)
	}
	if s.extBackend && s.nodeFailed(node) {
		// The administrative fail set lives in the store; an external
		// backend (disk, network) cannot know about it, so reads gate
		// here. The built-in memIO checks the flag itself — after the
		// injector has seen the op — which keeps seeded chaos schedules
		// byte-identical to previous releases.
		return fmt.Errorf("%w: node %d administratively failed", ErrNodeUnavailable, node)
	}
	return nil
}

// readColumn reads one column. Whatever comes back as an error is an
// erasure to the caller; what self-healing there is — retries, hedged
// reads, a deadline — sits in s.io (see Open).
func (s *Store) readColumn(node int, object string, stripe int) ([]byte, error) {
	if err := s.readGate(node); err != nil {
		return nil, err
	}
	data, err := s.io.ReadColumnCtx(context.Background(), node, object, stripe)
	if err == nil {
		s.health.OK(node)
	}
	return data, err
}

// readColumnAt reads a byte range of one column. When the I/O stack
// supports partial reads (memIO always does; a chaos.Injector passes
// them through) only the requested range moves; otherwise the whole
// column is read and sliced.
func (s *Store) readColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	if err := s.readGate(node); err != nil {
		return nil, err
	}
	data, err := s.io.ReadColumnAtCtx(context.Background(), node, object, stripe, off, n)
	if err == nil {
		s.health.OK(node)
	}
	return data, err
}

// columnWriter writes the columns of one object that a caller writes
// together — normally one stripe's. Over a backend with the batched-
// write extension and nothing wrapped around it (a netio.Client), add
// only collects and flush sends them down in one call, which the
// backend turns into one frame and one durable commit per DataNode.
// Over any other stack — memIO, a Config.WrapIO injector or tap — add
// is the write, one column at a time while the caller still has it in
// cache, and flush only reports. A failFast writer always works that
// way, whatever the backend, and stops at the first failure: that is
// for a caller to whom every column written before a failure is damage
// (UpdateSegment), which a batch cannot limit.
//
// Writes are not gated on health or the fail set: repair writes
// provision the replacement of a failed node, and callers that must not
// write to failed nodes check the flag themselves. A batch never names
// a node twice, so failures are reported by node.
type columnWriter struct {
	s        *Store
	object   string
	failFast bool
	stopped  bool
	pending  []chaos.ColumnWrite
	failed   map[int]error
}

func (s *Store) columnWriter(object string, failFast bool) *columnWriter {
	return &columnWriter{s: s, object: object, failFast: failFast}
}

func (w *columnWriter) done(node int, err error) {
	if err == nil {
		w.s.health.OK(node)
		return
	}
	if w.failed == nil {
		w.failed = make(map[int]error)
	}
	w.failed[node] = err
}

// add queues or performs the write of one column; nil data deletes it.
func (w *columnWriter) add(node, stripe int, data []byte) {
	switch {
	case w.s.batch != nil && !w.failFast:
		w.pending = append(w.pending, chaos.ColumnWrite{Node: node, Stripe: stripe, Data: data})
	case !w.stopped:
		err := w.s.io.WriteColumnCtx(context.Background(), node, w.object, stripe, data)
		w.done(node, err)
		w.stopped = w.failFast && err != nil
	}
}

// flush completes the writes added since the last flush and returns the
// ones that failed, by node: nil when all landed. The writer is ready
// for the next stripe.
func (w *columnWriter) flush() map[int]error {
	if len(w.pending) > 0 {
		errs := w.s.batch.WriteColumnsCtx(context.Background(), w.object, w.pending)
		for i, cw := range w.pending {
			w.done(cw.Node, chaos.ErrAt(errs, i))
		}
		w.pending = w.pending[:0]
	}
	failed := w.failed
	w.failed, w.stopped = nil, false
	return failed
}

// firstFailure returns the failed write on the lowest node of a flush.
func firstFailure(failed map[int]error) (node int, err error) {
	node = -1
	for n := range failed {
		if node < 0 || n < node {
			node = n
		}
	}
	return node, failed[node]
}
