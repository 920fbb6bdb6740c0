// Package chaos is a deterministic fault-injection layer for the
// storage stack. It defines NodeIO — the I/O surface between
// store.Store and its simulated DataNodes — and an Injector that wraps
// any NodeIO with a seeded, scriptable fault schedule composing the
// failure modes a real tiered video store faces beyond clean crashes:
// transient I/O errors, stragglers, silent bit corruption, and torn
// (partial) writes.
//
// Everything the injector does is driven by a single seeded PRNG, so a
// chaos run is reproducible from its seed: the same schedule against
// the same workload injects the same faults. Schedules are either
// built programmatically from Rule values or parsed from the compact
// textual DSL accepted by ParseSchedule (see schedule.go), e.g.
//
//	node=3,fault=corrupt,stripe>=7;node=1,fault=transient,rate=0.3
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"approxcode/internal/place"
)

// Sentinel errors of the fault taxonomy. The storage layer aliases and
// wraps these so errors.Is works across package boundaries.
var (
	// ErrNodeUnavailable is returned for I/O against a crashed (or
	// injector-crashed) node.
	ErrNodeUnavailable = errors.New("chaos: node unavailable")
	// ErrTransient is an injected transient I/O error: retrying the
	// operation may succeed.
	ErrTransient = errors.New("chaos: transient I/O error")
	// ErrColumnMissing marks a column that was never stored on a node
	// (e.g. a write skipped while the node was down). It is not a node
	// fault: the storage layer treats it as a plain erasure, with no
	// health penalty and no retries. It lives here — the NodeIO contract
	// package — so every backend (in-memory, disk, network) reports the
	// condition with one sentinel.
	ErrColumnMissing = errors.New("chaos: column missing")
	// ErrTimeout: a node operation exceeded its deadline. Errors that
	// carry it also wrap the context error where the deadline came from
	// a context, so errors.Is(err, context.DeadlineExceeded) holds too.
	ErrTimeout = errors.New("chaos: operation timed out")
	// ErrInvalid: a malformed request or argument (node out of range, a
	// byte range outside the column). Retrying cannot help.
	ErrInvalid = errors.New("chaos: invalid argument")
)

// OpKind classifies a node I/O operation.
type OpKind int

// Operation kinds. OpAny is only meaningful in rules, where it matches
// every operation. In rules OpRead matches both whole-column and
// partial reads (a schedule written before partial reads existed keeps
// its coverage); OpReadAt matches partial reads only.
const (
	OpAny OpKind = iota
	OpRead
	OpWrite
	OpReadAt
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAny:
		return "any"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadAt:
		return "readat"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op identifies one node I/O operation: the column of `Object`'s global
// stripe `Stripe` stored on node `Node`.
type Op struct {
	Kind   OpKind
	Node   int
	Object string
	Stripe int
}

// NodeIO is the I/O surface between the storage layer and one set of
// (simulated) DataNodes. The store's in-memory nodes implement it; the
// Injector wraps any implementation with fault injection.
type NodeIO interface {
	// ReadColumn returns the stored column of (object, stripe) on the
	// node, or an error.
	ReadColumn(node int, object string, stripe int) ([]byte, error)
	// WriteColumn stores a column of (object, stripe) on the node.
	WriteColumn(node int, object string, stripe int, data []byte) error
}

// PartialReader is the optional partial-column extension of NodeIO:
// backends that can serve a byte range of a column without moving the
// whole column implement it, and the storage layer's segment reads use
// it to fetch only the sub-blocks a segment actually spans. The
// Injector implements it over any inner NodeIO, falling back to a
// whole-column inner read plus slicing when the backend lacks it (the
// fault surface is preserved either way).
type PartialReader interface {
	// ReadColumnAt returns n bytes of the stored column of (object,
	// stripe) on the node starting at offset off, or an error. The
	// range must lie within the column.
	ReadColumnAt(node int, object string, stripe int, off, n int) ([]byte, error)
}

// FaultKind enumerates the injectable fault modes.
type FaultKind int

// Fault modes.
const (
	// FaultCrash fails the operation with ErrNodeUnavailable.
	FaultCrash FaultKind = iota
	// FaultTransient fails the operation with ErrTransient.
	FaultTransient
	// FaultLatency delays the operation by Rule.Latency (a straggler).
	FaultLatency
	// FaultCorrupt silently flips Rule.Bytes random bytes of the data
	// (read results or written columns) without reporting an error.
	FaultCorrupt
	// FaultTorn truncates a write to Rule.KeepFraction of the column (a
	// torn/partial write); reads are unaffected.
	FaultTorn
	// FaultPartition models a network partition. In-process injection
	// fails the operation with ErrNodeUnavailable (indistinguishable
	// from a crash without a wire); a transport-level injector (the
	// netio chaos proxy) instead black-holes the connection — the
	// request is swallowed and never answered, so the caller observes a
	// deadline expiry rather than a refused connection, exactly the
	// failure signature a real partition produces.
	FaultPartition
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultTransient:
		return "transient"
	case FaultLatency:
		return "latency"
	case FaultCorrupt:
		return "corrupt"
	case FaultTorn:
		return "torn"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Any matches every node (Rule.Node) or every stripe (Rule.Stripe).
const Any = -1

// Rule is one entry of a fault schedule. A rule matches an operation
// when every selector agrees, and then fires subject to its After,
// Count, and Rate gates.
type Rule struct {
	// Node selects the target node, or Any for all nodes.
	Node int
	// Op selects reads, writes, or OpAny for both.
	Op OpKind
	// Object selects an object name; "" matches any object.
	Object string
	// Stripe selects one global stripe exactly, or Any for all.
	Stripe int
	// FromStripe additionally restricts matches to stripes >=
	// FromStripe ("node 3 flips bits after stripe 7"). Zero imposes no
	// restriction.
	FromStripe int

	// Rack, Zone, and Batch select whole failure domains: the rule
	// matches any node whose topology label equals the selector
	// ("rack=r0,fault=crash" is a correlated whole-rack fault). Empty
	// imposes no restriction. Domain selectors need a topology bound
	// with Injector.SetTopology; without one they never match, so a
	// domain rule cannot silently degrade into a match-everything rule.
	Rack  string
	Zone  string
	Batch string

	// Kind is the fault mode to inject.
	Kind FaultKind
	// Rate is the per-matching-op firing probability; <= 0 means 1
	// (always fire).
	Rate float64
	// Count caps how many times the rule fires; 0 is unlimited.
	Count int
	// After skips the first After matching operations before the rule
	// becomes eligible.
	After int

	// Latency is the injected delay for FaultLatency.
	Latency time.Duration
	// Bytes is how many bytes FaultCorrupt flips; <= 0 means 1.
	Bytes int
	// KeepFraction is the fraction of the column a FaultTorn write
	// persists; <= 0 means 0.5, and values >= 1 are clamped to drop at
	// least one trailing byte.
	KeepFraction float64
}

// matches reports whether the rule's selectors accept the operation.
// OpRead rules accept partial reads too — OpReadAt is a refinement of
// read, not a disjoint kind — while OpReadAt rules accept only partial
// reads. topo resolves domain selectors (rack/zone/batch); it may be
// nil, in which case domain rules match nothing.
func (r *Rule) matches(op Op, topo *place.Topology) bool {
	if r.Node != Any && r.Node != op.Node {
		return false
	}
	if r.Rack != "" && (topo == nil || topo.RackOf(op.Node) != r.Rack) {
		return false
	}
	if r.Zone != "" && (topo == nil || topo.ZoneOf(op.Node) != r.Zone) {
		return false
	}
	if r.Batch != "" && (topo == nil || topo.BatchOf(op.Node) != r.Batch) {
		return false
	}
	if r.Op != OpAny && r.Op != op.Kind &&
		!(r.Op == OpRead && op.Kind == OpReadAt) {
		return false
	}
	if r.Object != "" && r.Object != op.Object {
		return false
	}
	if r.Stripe != Any && r.Stripe != op.Stripe {
		return false
	}
	if op.Stripe < r.FromStripe {
		return false
	}
	return true
}

// Stats counts injected faults by mode.
type Stats struct {
	Crashes, Transients, Latencies int64
	CorruptReads, CorruptWrites    int64
	TornWrites                     int64
	Partitions                     int64
}

// Total is the number of faults injected across all modes.
func (s Stats) Total() int64 {
	return s.Crashes + s.Transients + s.Latencies + s.CorruptReads + s.CorruptWrites + s.TornWrites + s.Partitions
}

type ruleState struct {
	Rule
	matched int // matching ops seen, for After
	fired   int // injections performed, for Count
}

// Injector wraps a NodeIO with a seeded fault schedule. It is safe for
// concurrent use; all randomness flows from the constructor seed.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	inner NodeIO
	rules []*ruleState
	stats Stats
	topo  *place.Topology     // resolves rack/zone/batch rule selectors
	sleep func(time.Duration) // test hook; nil = cancellable timer sleep
}

// SetTopology binds the failure-domain topology that resolves a rule's
// rack/zone/batch selectors to node indexes. Without a topology, domain
// rules match nothing.
func (in *Injector) SetTopology(t *place.Topology) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.topo = t
}

// NewInjector creates an injector with the given seed and initial
// rules. Bind it to a backend with Wrap before use.
func NewInjector(seed int64, rules ...Rule) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	in.AddRules(rules...)
	return in
}

// Wrap binds the injector to the inner NodeIO and returns the injector
// as the interposed NodeIO. Its signature matches the storage layer's
// WrapIO configuration hook, so a typical setup is
//
//	inj := chaos.NewInjector(seed, rules...)
//	cfg.WrapIO = inj.Wrap
func (in *Injector) Wrap(inner NodeIO) NodeIO {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.inner = inner
	return in
}

// AddRules appends rules to the schedule.
func (in *Injector) AddRules(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rules {
		r := r
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
}

// ClearNode removes every rule targeting the node (Any rules are kept).
// Call it when a failed node is replaced with fresh hardware.
func (in *Injector) ClearNode(node int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	kept := in.rules[:0]
	for _, r := range in.rules {
		if r.Node != node {
			kept = append(kept, r)
		}
	}
	in.rules = kept
}

// ClearAll removes every rule.
func (in *Injector) ClearAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Decision is the composed outcome of all rules firing on one op. The
// Injector's own NodeIO methods consume it internally; transport-level
// injectors — the netio chaos proxy interposing live TCP connections —
// call Decide on decoded wire requests and apply the same schedule at
// the network boundary.
type Decision struct {
	// Delay is the injected straggler latency to serve before the op.
	Delay time.Duration
	// Err, when non-nil, fails the op (crash or transient).
	Err error
	// CorruptBytes is how many bytes of the payload to flip.
	CorruptBytes int
	// Torn marks a write to truncate to KeepFraction of its payload.
	Torn         bool
	KeepFraction float64
	// Partitioned marks the op as caught in a network partition: a
	// transport injector black-holes it (no response, the peer's
	// deadline expires); the in-process injector fails it with Err
	// (already set to ErrNodeUnavailable).
	Partitioned bool
}

// Decide evaluates the schedule against op under the lock, advancing
// rule counters and drawing randomness in rule order (deterministic for
// a serial workload).
func (in *Injector) Decide(op Op) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d Decision
	for _, r := range in.rules {
		if !r.matches(op, in.topo) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Rate > 0 && r.Rate < 1 && in.rng.Float64() >= r.Rate {
			continue
		}
		switch r.Kind {
		case FaultCrash:
			r.fired++
			in.stats.Crashes++
			if d.Err == nil {
				d.Err = fmt.Errorf("%w: injected crash on node %d", ErrNodeUnavailable, op.Node)
			}
		case FaultTransient:
			r.fired++
			in.stats.Transients++
			if d.Err == nil {
				d.Err = fmt.Errorf("%w: node %d %s %s/%d", ErrTransient, op.Node, op.Kind, op.Object, op.Stripe)
			}
		case FaultLatency:
			r.fired++
			in.stats.Latencies++
			d.Delay += r.Latency
		case FaultCorrupt:
			r.fired++
			n := r.Bytes
			if n <= 0 {
				n = 1
			}
			d.CorruptBytes += n
			if op.Kind == OpWrite {
				in.stats.CorruptWrites++
			} else {
				in.stats.CorruptReads++
			}
		case FaultTorn:
			if op.Kind != OpWrite {
				continue
			}
			r.fired++
			in.stats.TornWrites++
			d.Torn = true
			kf := r.KeepFraction
			if kf <= 0 {
				kf = 0.5
			}
			if d.KeepFraction == 0 || kf < d.KeepFraction {
				d.KeepFraction = kf
			}
		case FaultPartition:
			r.fired++
			in.stats.Partitions++
			d.Partitioned = true
			if d.Err == nil {
				d.Err = fmt.Errorf("%w: node %d partitioned", ErrNodeUnavailable, op.Node)
			}
		}
	}
	return d
}

// CorruptCopy returns a copy of data with n random bytes XORed with
// random non-zero masks, drawing offsets and masks from the injector's
// seeded PRNG. Exported for transport-level injectors that corrupt
// payloads on the wire rather than at the NodeIO boundary.
func (in *Injector) CorruptCopy(data []byte, n int) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	in.mu.Lock()
	for i := 0; i < n; i++ {
		off := in.rng.Intn(len(out))
		mask := byte(1 + in.rng.Intn(255))
		out[off] ^= mask
	}
	in.mu.Unlock()
	return out
}

// CtxIO is the context-aware extension of NodeIO: backends whose
// operations can be cancelled mid-flight — a network client with per-op
// deadlines, or the Injector itself, whose latency rules otherwise
// sleep past the caller's deadline — implement it. The storage layer's
// retry machinery prefers it when available, so an abandoned attempt
// (deadline expiry, hedge loser) releases its resources immediately
// instead of running to completion in the background.
type CtxIO interface {
	ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error)
	ReadColumnAtCtx(ctx context.Context, node int, object string, stripe int, off, n int) ([]byte, error)
	WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error
}

// ColumnWrite is one column of a batched write: what WriteColumn takes,
// minus the object the whole batch shares. Nil Data deletes the column.
type ColumnWrite struct {
	Node   int
	Stripe int
	Data   []byte
}

// BatchWriter is the optional batched-write extension of NodeIO:
// backends for which "these columns of one stripe" is cheaper than the
// same columns one call at a time — one frame per DataNode on the wire,
// one durable commit in a column log — implement it, and the storage
// layer hands them a stripe's writes in one call. The result is nil
// when every write landed, else it has one entry per write, in order
// (read it with ErrAt): a failed column is an erasure to the caller
// exactly as a failed WriteColumn is, and the other columns of the
// batch land regardless. The Injector does not implement it, so a stack
// with fault injection in it sees one op per column, as ever.
type BatchWriter interface {
	WriteColumnsCtx(ctx context.Context, object string, writes []ColumnWrite) []error
}

// ErrAt is write i's outcome in a WriteColumnsCtx result.
func ErrAt(errs []error, i int) error {
	if errs == nil {
		return nil
	}
	return errs[i]
}

// sleepDelay serves an injected latency, honouring cancellation: a
// latency rule delays the op only until the caller's context expires,
// at which point the op fails with the context error instead of
// sleeping on. The test hook (in.sleep) bypasses the timer.
func (in *Injector) sleepDelay(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if in.sleep != nil {
		in.sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("chaos: injected latency cut short: %w", ctx.Err())
	}
}

// innerRead forwards a read to the inner NodeIO, context-aware when the
// backend supports it.
func (in *Injector) innerRead(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	if cio, ok := in.inner.(CtxIO); ok {
		return cio.ReadColumnCtx(ctx, node, object, stripe)
	}
	return in.inner.ReadColumn(node, object, stripe)
}

// ReadColumn implements NodeIO with fault injection.
func (in *Injector) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return in.ReadColumnCtx(context.Background(), node, object, stripe)
}

// ReadColumnCtx implements CtxIO: identical fault semantics, but
// injected latency respects ctx cancellation and the inner backend
// receives the context when it is context-aware.
func (in *Injector) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	d := in.Decide(Op{Kind: OpRead, Node: node, Object: object, Stripe: stripe})
	if err := in.sleepDelay(ctx, d.Delay); err != nil {
		return nil, err
	}
	if d.Err != nil {
		return nil, d.Err
	}
	data, err := in.innerRead(ctx, node, object, stripe)
	if err != nil {
		return nil, err
	}
	if d.CorruptBytes > 0 {
		data = in.CorruptCopy(data, d.CorruptBytes)
	}
	return data, nil
}

// ReadColumnAt implements PartialReader with fault injection. When the
// inner NodeIO also implements PartialReader only the requested range
// moves; otherwise the whole column is read underneath and sliced, so
// fault semantics stay identical whichever backend is wrapped. Corrupt
// faults flip bytes of the returned range (the fault models a bad read,
// not bad media, exactly as for whole-column reads).
func (in *Injector) ReadColumnAt(node int, object string, stripe int, off, n int) ([]byte, error) {
	return in.ReadColumnAtCtx(context.Background(), node, object, stripe, off, n)
}

// ReadColumnAtCtx implements CtxIO for partial reads.
func (in *Injector) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe int, off, n int) ([]byte, error) {
	d := in.Decide(Op{Kind: OpReadAt, Node: node, Object: object, Stripe: stripe})
	if err := in.sleepDelay(ctx, d.Delay); err != nil {
		return nil, err
	}
	if d.Err != nil {
		return nil, d.Err
	}
	var data []byte
	var err error
	switch pr := in.inner.(type) {
	case CtxIO:
		data, err = pr.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
	case PartialReader:
		data, err = pr.ReadColumnAt(node, object, stripe, off, n)
	default:
		var col []byte
		col, err = in.inner.ReadColumn(node, object, stripe)
		if err == nil {
			if off < 0 || n < 0 || off+n > len(col) {
				return nil, fmt.Errorf("%w: readat range [%d,%d) outside column of %d bytes", ErrInvalid, off, off+n, len(col))
			}
			data = append([]byte(nil), col[off:off+n]...)
		}
	}
	if err != nil {
		return nil, err
	}
	if d.CorruptBytes > 0 {
		data = in.CorruptCopy(data, d.CorruptBytes)
	}
	return data, nil
}

// WriteColumn implements NodeIO with fault injection.
func (in *Injector) WriteColumn(node int, object string, stripe int, data []byte) error {
	return in.WriteColumnCtx(context.Background(), node, object, stripe, data)
}

// WriteColumnCtx implements CtxIO for writes.
func (in *Injector) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	d := in.Decide(Op{Kind: OpWrite, Node: node, Object: object, Stripe: stripe})
	if err := in.sleepDelay(ctx, d.Delay); err != nil {
		return err
	}
	if d.Err != nil {
		return d.Err
	}
	if d.CorruptBytes > 0 {
		data = in.CorruptCopy(data, d.CorruptBytes)
	}
	if d.Torn {
		keep := int(d.KeepFraction * float64(len(data)))
		if keep >= len(data) && len(data) > 0 {
			keep = len(data) - 1
		}
		if keep < 0 {
			keep = 0
		}
		data = append([]byte(nil), data[:keep]...)
	}
	if cio, ok := in.inner.(CtxIO); ok {
		return cio.WriteColumnCtx(ctx, node, object, stripe, data)
	}
	return in.inner.WriteColumn(node, object, stripe, data)
}
