// Package store implements the Approximate Storage Layer of the paper
// (§3.6, Fig. 6) as a concurrent in-memory storage service: segment
// ingestion with importance tiering (the data identification and
// distribution module), parallel stripe encoding onto simulated
// DataNodes, degraded reads through on-the-fly codeword decoding,
// failure injection, a parallel repair pipeline, and a background-style
// scrubber. Segments that the code cannot recover are reported back so
// the caller can route them to the video recovery module
// (internal/video's interpolation).
package store

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/place"
	"approxcode/internal/resilience"
	"approxcode/internal/tier"
)

// Segment is the unit of ingestion: an opaque payload tagged important
// (I frame) or unimportant (P/B frame) by the identification module.
type Segment struct {
	ID        int
	Important bool
	Data      []byte
}

// Config configures a Store.
type Config struct {
	// Code is the Approximate Code generated for this store.
	Code core.Params
	// NodeSize is the per-node column size per global stripe; it is
	// aligned down to the code's ShardSizeMultiple.
	NodeSize int
	// EncodeWorkers / RepairWorkers bound the parallelism of the encode
	// and repair pipelines (default: GOMAXPROCS).
	EncodeWorkers, RepairWorkers int
	// ContiguousPlacement disables the default failure-domain
	// interleaving. By default consecutive segments are placed on
	// different nodes so that a node failure loses scattered frames
	// (cheap to interpolate) rather than long runs; contiguous placement
	// packs segments in stream order instead (slightly better locality
	// for sequential reads).
	ContiguousPlacement bool
	// Retry tunes the retry/hedge/deadline wrapper the store composes
	// in front of a WrapIO stack (it has no effect without WrapIO: a
	// bare backend gets single attempts). Zero values pick sane
	// defaults.
	Retry RetryPolicy
	// Health tunes the per-node healthy → suspect → failed state
	// machine. Zero values pick sane defaults.
	Health HealthPolicy
	// Backend, when set, is the NodeIO the store performs all column
	// I/O against — the transport-agnostic wiring point for per-node
	// backends (a netio.Client for networked DataNodes, a disk-backed
	// NodeIO, anything satisfying the interface). Nil uses the built-in
	// in-memory nodes. With an external backend the store's node structs
	// hold only administrative state (the FailNodes set); column bytes,
	// Save snapshots, and Stats.StoredBytes accounting live with the
	// backend. A backend that runs the resilience wrapper at its own
	// edge (netio.Client does) should be used without WrapIO, so the
	// store issues single attempts instead of stacking a second retry
	// loop on top.
	Backend chaos.NodeIO
	// WrapIO, when set, wraps the store's node I/O — the fault-injection
	// hook (pass a chaos.Injector's Wrap method). The store puts the
	// resilience wrapper (retries, hedged reads, op deadline) in front
	// of what it returns; with no WrapIO there is nothing to heal
	// around and every column operation is a single attempt.
	WrapIO func(chaos.NodeIO) chaos.NodeIO
	// MaxInFlight bounds how many foreground operations (Put, Get,
	// GetSegment, UpdateSegment) execute concurrently. Operations
	// beyond the limit wait up to AdmitWait for a slot and then fail
	// fast with ErrOverloaded — explicit backpressure instead of
	// unbounded goroutine and memory growth under overload. 0 disables
	// admission control (no limit).
	MaxInFlight int
	// AdmitWait is how long an operation waits for an in-flight slot
	// before ErrOverloaded (default 2ms when MaxInFlight > 0; negative
	// fails immediately).
	AdmitWait time.Duration
	// NoGroupCommit disables journal batch coalescing: every mutating
	// op pays its own fsync, the pre-group-commit behaviour. Benchmark
	// baseline (apprbench -exp pr6); leave off in production.
	NoGroupCommit bool
	// CacheBytes bounds the decoded-segment read cache (see
	// tier.Cache): successful GetSegment results of hot-tier objects
	// are served from memory without touching NodeIO, up to roughly
	// this many payload bytes. 0 disables the cache.
	CacheBytes int64
	// Tracker, when set, receives one Touch per Get/GetSegment — the
	// popularity signal a tier.Manager samples to drive promotions and
	// demotions. Nil disables tracking (migrations can still be driven
	// explicitly via MigrateObject).
	Tracker *tier.Tracker
	// Obs is the metrics/tracing registry the store reports into (see
	// internal/obs); Store.Stats is a view over its counters. Nil gets
	// the store a private disabled registry: counters still count (they
	// are plain atomics) but latency histograms and spans stay off, so
	// the hot paths pay one atomic load for them.
	Obs *obs.Registry
	// Crasher, when set, threads named crash points through the store's
	// write and persistence paths (see chaos.Crasher): an armed crasher
	// simulates a kill -9 at the selected point. Nil disables them.
	Crasher *chaos.Crasher
	// Topology labels each node slot with its failure domains (disk
	// batch, rack, zone) — see internal/place. The store checks the
	// survival invariants of (Code, Topology) once at Open and caches
	// the verdict: Put asserts it (an explicit topology that violates
	// the invariants fails with ErrPlacementUnsafe), Scrub reports it,
	// and the repair path uses the rack labels to account rack-local
	// vs cross-rack traffic. Nil defaults to the legacy flat
	// single-rack layout, which is reported as exposed but never
	// enforced (pre-topology stores keep working).
	Topology *place.Topology
	// AllowUnsafePlacement lets Put proceed even when the explicit
	// Topology violates the survival invariants — the opt-in for
	// measured baselines (e.g. the pr10 bench's scatter placement).
	AllowUnsafePlacement bool
}

// Store is a concurrent approximate storage layer. All exported methods
// are safe for concurrent use.
type Store struct {
	cfg  Config
	code *core.Code

	// io is what column operations call: one accounted attempt against
	// the configured backend (memIO by default), and — only when
	// Config.WrapIO put an injector or tap in the stack — the
	// resilience wrapper in front of it. extBackend marks a
	// caller-provided backend, whose reads the store gates on its
	// administrative fail set (the built-in memIO checks the flag
	// itself). batch is the same single attempt in batched form, set
	// when the backend takes a stripe's columns in one call and nothing
	// is wrapped around it (see columnWriter).
	io         chaos.CtxIO
	batch      chaos.BatchWriter
	extBackend bool
	health     *resilience.Health
	metrics    storeMetrics

	// failMu serializes node-set transitions (FailNodes) against
	// operations that require a stable healthy stripe set for their
	// whole duration (UpdateSegment): writers of the fail set take the
	// write lock, update holds the read lock across check + swap.
	failMu sync.RWMutex

	// quiesce fences mutating operations against Save: each mutation
	// holds the read lock across its journal-append + apply (making
	// them one unit), Save holds the write lock so its snapshot agrees
	// exactly with the journal sequence it records. Lock order:
	// quiesce before failMu before objectShard.mu before
	// object.updateMu before object.sumsMu before node.mu.
	quiesce sync.RWMutex

	// admit is the admission controller (nil = unlimited); colBufs
	// recycles encode-path column buffers; subShift combines sub-block
	// checksums into their column's (see colSums).
	admit    *limiter
	colBufs  *colPool
	subShift *crcShift

	// cache is the bounded decoded-segment read cache (nil when
	// disabled); tracker is the per-object popularity counter feeding
	// the tier policy (nil when disabled). Both are nil-safe.
	cache   *tier.Cache
	tracker *tier.Tracker

	// Durability state (nil/zero for a purely in-memory store): the
	// attached write-ahead journal, its directory, the live snapshot
	// generation, and the last journal sequence restored by a load
	// (the journal's own counter takes over once attached).
	jn  *journal
	dir string
	gen uint64
	seq uint64
	// replaying is set while journal replay applies records to a
	// freshly loaded store; it gates both crash points and journal
	// appends (replay must neither re-crash nor re-journal).
	replaying bool
	// pending carries an interrupted repair run found in the journal,
	// for StartRepair's resume mode.
	pending *pendingRepair
	// repairMu serializes repair runs; repairing marks one active.
	repairMu  sync.Mutex
	repairing bool
	// lastCkpt is the unix-nano time of the newest repair checkpoint
	// (feeds the checkpoint-age gauge).
	lastCkpt atomic.Int64
	crasher  *chaos.Crasher

	nodes []*node
	// objects is the sharded object directory (see shardmap.go): name
	// lookups and publishes stripe over 64 locks so Put/Get on
	// different objects never serialize on one mutex.
	objects *objectMap

	// topo is the failure-domain topology (never nil after Open: an
	// implicit flat layout when none was configured), topoExplicit
	// whether the caller supplied it, and topoReport the cached
	// survival-checker verdict — pure in (Code, topo), so computed
	// once. All three are immutable after Open.
	topo         *place.Topology
	topoExplicit bool
	topoReport   *place.Report
}

type node struct {
	mu     sync.RWMutex
	failed bool
	// columns[object][stripe] is this node's column of that stripe.
	columns map[string][][]byte
}

type extent struct {
	seg, stripe, node, row, off, length int
}

type object struct {
	name     string
	segments []Segment // metadata only: Data stripped after ingest
	extents  []extent
	stripes  int
	// segPos maps a segment ID to its position in segments and
	// segExt[pos] lists that segment's extents in stream order. Both are
	// built once by newObject and immutable, so a single-segment read or
	// update finds its extents without scanning the object.
	segPos map[int]int
	segExt [][]extent
	// tier is the object's current redundancy tier (tier.Level). Reads
	// load it locklessly; it is swapped only at a migration's commit
	// point, so a reader observes entirely the old or entirely the new
	// encoding, never a mix. The data columns are identical across
	// tiers — only the redundancy around them changes — so a reader
	// holding a stale tier for one read still gets exact bytes (it may
	// just plan a decode where a replica existed, or vice versa find a
	// replica missing and escalate).
	tier atomic.Int32
	// version is the object's data epoch, a sequence lock over its
	// stored bytes: UpdateSegment makes it odd on entry and even again
	// on exit, every other byte-changing commit (a repair zero-filling
	// lost segments, a migration) adds 2. Readers run lock-free and
	// check it (see objRead): odd, or changed since the read began,
	// means an update overlapped the read. Cache keys embed it too, so
	// entries cached against an old epoch can never serve a hit after
	// the bytes moved — stale entries simply age out of the LRU.
	version atomic.Int64
	// updateMu serializes whole-object mutations of stored columns
	// (UpdateSegment) against scrub's read-repair write-backs. Without
	// it scrub can sample a stripe mid-update — new bytes, not-yet-
	// published checksums — misread the fresh column as corrupt, and
	// "heal" it back to its pre-update bytes after the update finishes:
	// a lost update. Scrub re-reads the stripe under this lock, so a
	// demote it acts on is genuine corruption, never an in-flight
	// update. A read that an update overlapped repeats under it too.
	updateMu sync.Mutex
	// sumsMu guards the three checksum grains below — the object's only
	// mutable state after publish, so readers of one object never
	// contend with writers of another. Column and sub-block rows are
	// copy-on-write: readers take the row reference under RLock and a
	// published row is never mutated. Segment sums are read and written
	// by value under the lock.
	sumsMu sync.RWMutex
	// sums[stripe][node] is the CRC-32C of the column as written.
	sums [][]uint32
	// subSums[stripe][node][row] is the CRC-32C of each of the column's
	// H sub-blocks, published alongside sums. They let a partial-column
	// read verify just the sub-block it moved; an object loaded from a
	// pre-sub-checksum snapshot has nil entries and partial reads fall
	// back to whole-column verification.
	subSums [][][]uint32
	// segSums[pos] is the CRC-32C of segment pos's bytes as the caller
	// wrote them — end to end, independent of placement and redundancy.
	// It lets a healthy GetSegment verify exactly the bytes it moved. An
	// object loaded from a snapshot without the field has none (nil),
	// and a repair that zero-fills a segment clears its entry; such
	// segments are served through the sub-block sums.
	segSums []segSum
}

// segSum is one segment's content checksum. OK false means there is no
// sum to verify against — explicit, never a zero CRC. (Exported fields:
// the snapshot manifest carries the slice through gob.)
type segSum struct {
	Sum uint32
	OK  bool
}

// newObject builds an object descriptor and its segment index.
func newObject(name string, segments []Segment, extents []extent, stripes int) *object {
	o := &object{name: name, segments: segments, extents: extents, stripes: stripes,
		segPos: make(map[int]int, len(segments)), segExt: make([][]extent, len(segments))}
	for pos, m := range segments {
		o.segPos[m.ID] = pos
	}
	// Placement emits each segment's extents as one run, so the index is
	// normally subslices of extents; a second run of the same segment
	// (capacity is capped, so append copies) keeps it right for any
	// extent order a manifest may carry.
	for i := 0; i < len(extents); {
		j := i + 1
		for j < len(extents) && extents[j].seg == extents[i].seg {
			j++
		}
		if pos, ok := o.segPos[extents[i].seg]; ok {
			if o.segExt[pos] == nil {
				o.segExt[pos] = extents[i:j:j]
			} else {
				o.segExt[pos] = append(o.segExt[pos], extents[i:j]...)
			}
		}
		i = j
	}
	return o
}

// segSum returns segment pos's published content checksum, ok=false
// when there is none.
func (o *object) segSum(pos int) (sum uint32, ok bool) {
	o.sumsMu.RLock()
	defer o.sumsMu.RUnlock()
	if pos < len(o.segSums) {
		return o.segSums[pos].Sum, o.segSums[pos].OK
	}
	return 0, false
}

// setSegSum publishes (or, with the zero value, clears) segment pos's
// content checksum. An object loaded without segment sums gains them
// segment by segment as updates rewrite it.
func (o *object) setSegSum(pos int, v segSum) {
	o.sumsMu.Lock()
	defer o.sumsMu.Unlock()
	if o.segSums == nil && v.OK {
		o.segSums = make([]segSum, len(o.segments))
	}
	if pos < len(o.segSums) {
		o.segSums[pos] = v
	}
}

// clearSegSums drops the content checksums of segments (by ID) whose
// bytes a repair zero-filled: what the nodes hold is no longer what the
// caller wrote.
func (o *object) clearSegSums(ids []int) {
	for _, id := range ids {
		if pos, ok := o.segPos[id]; ok {
			o.setSegSum(pos, segSum{})
		}
	}
}

// sumsRow returns the published checksum row for a stripe (nil when the
// object predates checksums, e.g. loaded from an old snapshot).
func (o *object) sumsRow(stripe int) []uint32 {
	o.sumsMu.RLock()
	defer o.sumsMu.RUnlock()
	if stripe < len(o.sums) {
		return o.sums[stripe]
	}
	return nil
}

// setSums publishes new checksums for some columns of a stripe,
// copy-on-write so concurrent sumsRow callers keep a consistent row.
// width is the store's node count (the row length).
func (o *object) setSums(stripe, width int, updates map[int]uint32) {
	if len(updates) == 0 {
		return
	}
	o.sumsMu.Lock()
	defer o.sumsMu.Unlock()
	for len(o.sums) <= stripe {
		o.sums = append(o.sums, nil)
	}
	row := make([]uint32, width)
	copy(row, o.sums[stripe])
	for ni, sum := range updates {
		row[ni] = sum
	}
	o.sums[stripe] = row
}

// subSumsRow returns the published sub-block checksum rows for a stripe
// (nil when absent, e.g. loaded from a pre-sub-checksum snapshot).
func (o *object) subSumsRow(stripe int) [][]uint32 {
	o.sumsMu.RLock()
	defer o.sumsMu.RUnlock()
	if stripe < len(o.subSums) {
		return o.subSums[stripe]
	}
	return nil
}

// setSubSums publishes new per-sub-block checksums for some columns of
// a stripe, copy-on-write like setSums: the outer row is replaced, a
// published inner []uint32 is never mutated.
func (o *object) setSubSums(stripe, width int, updates map[int][]uint32) {
	if len(updates) == 0 {
		return
	}
	o.sumsMu.Lock()
	defer o.sumsMu.Unlock()
	for len(o.subSums) <= stripe {
		o.subSums = append(o.subSums, nil)
	}
	row := make([][]uint32, width)
	copy(row, o.subSums[stripe])
	for ni, sums := range updates {
		row[ni] = sums
	}
	o.subSums[stripe] = row
}

// Open creates a store with healthy nodes.
func Open(cfg Config) (*Store, error) {
	code, err := core.New(cfg.Code)
	if err != nil {
		return nil, err
	}
	mult := code.ShardSizeMultiple()
	if cfg.NodeSize < mult {
		return nil, fmt.Errorf("store: node size %d below code granularity %d", cfg.NodeSize, mult)
	}
	cfg.NodeSize -= cfg.NodeSize % mult
	if cfg.EncodeWorkers <= 0 {
		cfg.EncodeWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RepairWorkers <= 0 {
		cfg.RepairWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Store{cfg: cfg, code: code, objects: newObjectMap(), crasher: cfg.Crasher}
	s.metrics = newStoreMetrics(cfg.Obs)
	s.admit = newLimiter(cfg.MaxInFlight, cfg.AdmitWait, &s.metrics)
	s.colBufs = newColPool(cfg.NodeSize)
	s.subShift = newCRCShift(cfg.NodeSize / cfg.Code.H)
	s.tracker = cfg.Tracker
	s.cache = tier.NewCache(cfg.CacheBytes, tier.CacheMetrics{
		Hits:      s.metrics.cacheHits,
		Misses:    s.metrics.cacheMisses,
		Evictions: s.metrics.cacheEvictions,
		Bytes:     s.metrics.cacheBytes,
	})
	code.Instrument(s.metrics.reg)
	for i := 0; i < code.TotalShards(); i++ {
		s.nodes = append(s.nodes, &node{columns: make(map[string][][]byte)})
	}
	s.health = newHealth(cfg.Health)
	var base chaos.NodeIO = &memIO{s: s}
	if cfg.Backend != nil {
		base = cfg.Backend
		s.extBackend = true
	}
	if cfg.WrapIO == nil {
		// Nothing between the store and its backend can fail
		// transiently (memIO) or the backend heals itself at its own
		// edge (netio.Client): every operation is a single attempt.
		a := newAttemptIO(base, &s.metrics)
		s.io = a
		if a.bw != nil {
			s.batch = a
		}
	} else {
		s.io = resilience.Wrap(newAttemptIO(cfg.WrapIO(base), &s.metrics),
			cfg.Retry.WithDefaults(defaultRetry), s.health,
			resilience.Metrics{
				Retries:    s.metrics.retries,
				Hedges:     s.metrics.hedges,
				HedgeWins:  s.metrics.hedgeWins,
				ReadErrors: s.metrics.readErrors,
			})
	}
	if cfg.Topology != nil {
		s.topo = cfg.Topology.Clone()
		s.topoExplicit = true
	} else {
		s.topo = place.Flat(code.TotalShards())
	}
	rep, err := place.Check(cfg.Code, s.topo)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.topoReport = rep
	s.registerGauges()
	return s, nil
}

// Topology returns the store's failure-domain topology (a flat
// single-rack layout when none was configured). Callers must not
// mutate the result.
func (s *Store) Topology() *place.Topology { return s.topo }

// PlacementReport returns the cached survival-checker verdict for the
// store's (code, topology) pair. It is computed once at Open — the
// predicate is static per code geometry, so it holds for every object
// the store encodes.
func (s *Store) PlacementReport() *place.Report { return s.topoReport }

// placementUnsafe reports whether Put must refuse: the caller supplied
// an explicit topology, it violates an enforceable survival invariant,
// and the unsafe-baseline opt-in is off. Implicit flat layouts are
// exempt (legacy stores predate topology; Scrub reports them instead).
func (s *Store) placementUnsafe() bool {
	return s.topoExplicit && !s.cfg.AllowUnsafePlacement && s.topoReport.Err() != nil
}

// crash passes through the named crash point (a no-op unless a
// chaos.Crasher is configured and armed). Crash points are suppressed
// during journal replay: recovery must not re-die at the point that
// killed the original run.
func (s *Store) crash(point string) {
	if s.replaying {
		return
	}
	s.crasher.Hit(point)
}

// journalAppend makes a mutation durable before it is applied. With no
// journal attached (purely in-memory store) or during replay it is a
// no-op. Callers hold quiesce.RLock so the append and the apply are one
// unit relative to Save.
func (s *Store) journalAppend(t recType, payload recordBody) error {
	if s.jn == nil || s.replaying {
		return nil
	}
	if _, err := s.jn.append(t, payload); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// lastSeq is the last durable journal sequence (the attached journal's
// counter, or the sequence restored by load for a detached store).
func (s *Store) lastSeq() uint64 {
	if s.jn != nil {
		return s.jn.lastSeq()
	}
	return s.seq
}

// Close releases the journal handle, if any. The store itself is
// in-memory and needs no other teardown.
func (s *Store) Close() error { return s.jn.close() }

// nodeFailed reports the node's crash flag.
func (s *Store) nodeFailed(i int) bool {
	nd := s.nodes[i]
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	return nd.failed
}

// Code returns the store's generated Approximate Code.
func (s *Store) Code() *core.Code { return s.code }

// placement plans extents for the segments using the same two-cursor
// first-fit scheme as the video distribution module, generalized to
// opaque segments.
func (s *Store) placement(segs []Segment) ([]extent, int) {
	p := s.code.Params()
	data := s.code.DataNodeIndexes()
	mkSlots := func(important bool) []slotCursor {
		var slots []slotCursor
		for l := 0; l < p.H; l++ {
			for m := 0; m < p.H; m++ {
				if s.code.Important(l, m) != important {
					continue
				}
				for j := 0; j < p.K; j++ {
					slots = append(slots, slotCursor{node: data[l*p.K+j], row: m})
				}
			}
		}
		return slots
	}
	sub := s.cfg.NodeSize / p.H
	if s.cfg.ContiguousPlacement {
		return contiguousPlacement(segs, mkSlots, sub)
	}
	return interleavedPlacement(segs, mkSlots, sub)
}

type slotCursor struct{ node, row int }

// contiguousPlacement packs segments in stream order, filling each slot
// column fully before moving to the next (the video module's scheme).
func contiguousPlacement(segs []Segment, mkSlots func(bool) []slotCursor, sub int) ([]extent, int) {
	type cursor struct {
		slots           []slotCursor
		stripe, si, off int
	}
	cursors := map[bool]*cursor{
		true:  {slots: mkSlots(true)},
		false: {slots: mkSlots(false)},
	}
	var extents []extent
	for _, seg := range segs {
		cur := cursors[seg.Important]
		remaining := len(seg.Data)
		for remaining > 0 {
			room := sub - cur.off
			n := remaining
			if n > room {
				n = room
			}
			sl := cur.slots[cur.si]
			extents = append(extents, extent{
				seg: seg.ID, stripe: cur.stripe, node: sl.node, row: sl.row,
				off: cur.off, length: n,
			})
			cur.off += n
			remaining -= n
			if cur.off == sub {
				cur.off = 0
				cur.si++
				if cur.si == len(cur.slots) {
					cur.si = 0
					cur.stripe++
				}
			}
		}
	}
	stripes := 0
	for _, cur := range cursors {
		used := cur.stripe
		if cur.si != 0 || cur.off != 0 {
			used++
		}
		if used > stripes {
			stripes = used
		}
	}
	if stripes == 0 {
		stripes = 1
	}
	return extents, stripes
}

// interleavedPlacement assigns consecutive segments of a tier to
// consecutive slots round-robin, so neighbouring frames live in
// different failure domains: a lost node costs scattered frames, which
// temporal interpolation handles far better than runs. Each slot keeps
// its own (stripe, offset) cursor; a segment stays within its slot,
// spilling into the same slot of the next global stripe when the
// sub-block fills.
func interleavedPlacement(segs []Segment, mkSlots func(bool) []slotCursor, sub int) ([]extent, int) {
	type slotState struct {
		slotCursor
		stripe, off int
	}
	mk := func(important bool) []*slotState {
		slots := mkSlots(important)
		out := make([]*slotState, len(slots))
		for i, sl := range slots {
			out[i] = &slotState{slotCursor: sl}
		}
		return out
	}
	states := map[bool][]*slotState{true: mk(true), false: mk(false)}
	next := map[bool]int{}
	var extents []extent
	for _, seg := range segs {
		tier := states[seg.Important]
		st := tier[next[seg.Important]%len(tier)]
		next[seg.Important]++
		remaining := len(seg.Data)
		for remaining > 0 {
			room := sub - st.off
			n := remaining
			if n > room {
				n = room
			}
			extents = append(extents, extent{
				seg: seg.ID, stripe: st.stripe, node: st.node, row: st.row,
				off: st.off, length: n,
			})
			st.off += n
			remaining -= n
			if st.off == sub {
				st.off = 0
				st.stripe++
			}
		}
	}
	stripes := 1
	for _, tier := range states {
		for _, st := range tier {
			used := st.stripe
			if st.off != 0 {
				used++
			}
			if used > stripes {
				stripes = used
			}
		}
	}
	return extents, stripes
}

// preparedPut is a fully encoded object waiting to be committed.
type preparedPut struct {
	extents []extent
	stripes int
	cols    [][][]byte
	meta    []Segment
	segSums []segSum
}

// Put ingests the segments as a new object: plans placement, packs the
// data node columns, encodes every global stripe on the parallel encode
// pool, journals the operation (when the store is durable), and stores
// the columns on the (healthy) nodes. Put returns only after the
// journal record is synced, so an acknowledged Put survives a crash at
// any later point.
func (s *Store) Put(name string, segs []Segment) error {
	if err := s.admit.acquire("Put"); err != nil {
		return err
	}
	defer s.admit.release()
	defer s.metrics.opPut.Start().Stop()
	sp := s.metrics.reg.StartSpan("store.Put")
	defer func() { sp.End(obs.A("object", name), obs.A("segments", len(segs))) }()
	if name == "" {
		return fmt.Errorf("store: empty object name")
	}
	if s.placementUnsafe() {
		return fmt.Errorf("%w: %s", ErrPlacementUnsafe, s.topoReport.Err())
	}
	ids := make(map[int]bool, len(segs))
	for _, seg := range segs {
		if len(seg.Data) == 0 {
			return fmt.Errorf("store: segment %d is empty", seg.ID)
		}
		if ids[seg.ID] {
			return fmt.Errorf("store: duplicate segment id %d", seg.ID)
		}
		ids[seg.ID] = true
	}
	// Reserve the name while encoding happens outside the lock.
	if !s.objects.reserve(name) {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	pp, err := s.preparePut(segs)
	if err != nil {
		s.objects.drop(name)
		return err
	}
	// Journal + apply are one unit relative to Save's quiesce fence;
	// the journal record carries the raw segments, so replay re-derives
	// the identical placement and encoding.
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	s.crash("put.before-journal")
	if err := s.journalAppend(recPut, putRecord{Name: name, Segments: segs}); err != nil {
		s.colBufs.putStripes(pp.cols)
		s.objects.drop(name)
		return err
	}
	s.crash("put.after-journal")
	s.commitPut(name, pp)
	return nil
}

// applyPut is Put without metrics, journaling, or crash points — the
// journal replay path.
func (s *Store) applyPut(name string, segs []Segment) error {
	if !s.objects.reserve(name) {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	pp, err := s.preparePut(segs)
	if err != nil {
		s.objects.drop(name)
		return err
	}
	s.commitPut(name, pp)
	return nil
}

// preparePut plans placement, packs the data columns, and encodes every
// stripe — pure computation, no store mutation.
func (s *Store) preparePut(segs []Segment) (*preparedPut, error) {
	extents, stripes := s.placement(segs)
	// Every column — data and parity alike — comes from the pool, so a
	// burst of Puts recycles a bounded working set instead of allocating
	// stripes × totalShards fresh buffers per call. Encode fills the
	// preallocated parity columns in place.
	cols := make([][][]byte, stripes)
	for st := range cols {
		cols[st] = make([][]byte, s.code.TotalShards())
		for ni := range cols[st] {
			cols[st][ni] = s.colBufs.get()
		}
	}
	sub := s.cfg.NodeSize / s.cfg.Code.H
	segByID := make(map[int][]byte, len(segs))
	offsets := make(map[int]int, len(segs))
	for _, seg := range segs {
		segByID[seg.ID] = seg.Data
	}
	for _, e := range extents {
		src := segByID[e.seg][offsets[e.seg] : offsets[e.seg]+e.length]
		copy(cols[e.stripe][e.node][e.row*sub+e.off:], src)
		offsets[e.seg] += e.length
	}
	if err := s.encodeStripes(cols); err != nil {
		// The pooled buffers were never published anywhere; recycle
		// them instead of leaking the whole stripe set on every failed
		// encode.
		s.colBufs.putStripes(cols)
		return nil, err
	}
	// Keep segment metadata only; payload bytes live on the nodes and
	// segment sizes are implied by the extents. The content checksum is
	// taken from the caller's bytes here, so journal replay (which comes
	// through this function with the recorded segments) re-derives it.
	meta := make([]Segment, len(segs))
	segSums := make([]segSum, len(segs))
	for i, seg := range segs {
		meta[i] = Segment{ID: seg.ID, Important: seg.Important}
		segSums[i] = segSum{Sum: colSum(seg.Data), OK: true}
	}
	return &preparedPut{extents: extents, stripes: stripes, cols: cols, meta: meta, segSums: segSums}, nil
}

// commitPut writes the prepared columns to the (healthy) nodes and
// publishes the object. Checksums come from the intended bytes (so a
// rebuilt column must reproduce them exactly); a write that keeps
// failing is dropped — the column becomes an erasure that repair or
// scrub heals later.
func (s *Store) commitPut(name string, pp *preparedPut) {
	sums := make([][]uint32, pp.stripes)
	subs := make([][][]uint32, pp.stripes)
	w := s.columnWriter(name, false)
	for st, stripe := range pp.cols {
		sums[st] = make([]uint32, len(stripe))
		subs[st] = make([][]uint32, len(stripe))
		for ni, col := range stripe {
			sums[st][ni], subs[st][ni] = s.colSums(col)
			if !s.nodeFailed(ni) {
				w.add(ni, st, col)
			}
		}
		_ = w.flush() // a column that failed to land is an erasure
		if st == 0 {
			s.crash("put.mid-write")
		}
	}
	obj := newObject(name, pp.meta, pp.extents, pp.stripes)
	obj.sums, obj.subSums, obj.segSums = sums, subs, pp.segSums
	s.objects.publish(name, obj)
	// The node writes copied every column at the I/O boundary, so the
	// encode buffers can go back to the pool.
	s.colBufs.putStripes(pp.cols)
	pp.cols = nil
}

// encodeStripes runs Encode over every stripe with a bounded worker
// pool.
func (s *Store) encodeStripes(cols [][][]byte) error {
	workers := s.cfg.EncodeWorkers
	if workers > len(cols) {
		workers = len(cols)
	}
	jobs := make(chan int)
	errs := make(chan error, len(cols))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range jobs {
				if err := s.code.Encode(cols[st]); err != nil {
					errs <- fmt.Errorf("stripe %d: %w", st, err)
				}
			}
		}()
	}
	for st := range cols {
		jobs <- st
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

// readStripe assembles one stripe through the self-healing I/O path and
// verifies every column against its stored CRC-32C. Columns that fail
// the checksum (or persistent I/O) are demoted to erasures — nil in the
// returned set, listed in demoted — so the decode machinery heals
// around them exactly as it does around crashed nodes. rd is the
// lock-free read this stripe is part of: a mismatch an UpdateSegment
// explains tears the read instead of demoting (the column stays nil and
// the caller discards the attempt). Callers that exclude updates pass
// nil.
func (s *Store) readStripe(obj *object, stripe int, rd *objRead) (cols [][]byte, demoted []int) {
	cols = make([][]byte, len(s.nodes))
	sums := obj.sumsRow(stripe)
	for ni := range s.nodes {
		data, err := s.readColumn(ni, obj.name, stripe)
		if err != nil {
			if errors.Is(err, errColumnMissing) || errors.Is(err, ErrNodeUnavailable) {
				continue // plain erasure: crashed node or never-stored column
			}
			demoted = append(demoted, ni)
			continue
		}
		if len(data) != s.cfg.NodeSize ||
			(sums != nil && ni < len(sums) && sums[ni] != 0 && colSum(data) != sums[ni]) {
			if rd.overlapped() {
				continue
			}
			s.demoteColumn(ni)
			demoted = append(demoted, ni)
			continue
		}
		s.health.Verified(ni)
		cols[ni] = data
	}
	return cols, demoted
}

// demoteColumn records one checksum demotion: the column (or
// sub-block) read back bytes that failed verification and is being
// treated as an erasure. Every demote site — whole-column, planned,
// partial-read fast path, repair — routes through here so the
// accounting and the health FSM's corruption streak stay uniform.
func (s *Store) demoteColumn(ni int) {
	s.metrics.checksumFailures.Inc()
	s.metrics.checksumDemotions.Inc()
	s.health.Corrupt(ni)
}

// GetReport describes losses encountered by a Get.
type GetReport struct {
	// LostSegments lists segment IDs whose bytes were unrecoverable
	// (returned zero-filled); route these to the video recovery module.
	LostSegments []int
	// Approximate is the subset of LostSegments that is unimportant
	// (P/B frames): these are the segments the video-interpolation
	// fallback reconstructs, so their loss was a design decision rather
	// than data loss. Important segments in LostSegments but not here
	// exceeded the code's full fault tolerance.
	Approximate []int
	// DegradedSubReads counts sub-blocks this Get had to decode from
	// survivors instead of reading directly.
	DegradedSubReads int
	// ChecksumFailures counts columns this Get demoted to erasures
	// because their bytes did not match the stored CRC-32C.
	ChecksumFailures int
}

// Get returns every segment of the object, decoding around failed nodes
// and checksum-demoted columns (degraded reads). Unrecoverable segments
// are returned zero-filled and listed in the report; unimportant ones
// are additionally flagged approximate for the interpolation fallback.
func (s *Store) Get(name string) ([]Segment, *GetReport, error) {
	if err := s.admit.acquire("Get"); err != nil {
		return nil, nil, err
	}
	defer s.admit.release()
	s.tracker.Touch(name)
	return s.get(name)
}

// get is Get after admission — GetSegment calls it directly so one
// logical operation is admitted exactly once.
func (s *Store) get(name string) ([]Segment, *GetReport, error) {
	defer s.metrics.opGet.Start().Stop()
	sp := s.metrics.reg.StartSpan("store.Get")
	rep := &GetReport{}
	defer func() {
		sp.End(obs.A("object", name), obs.A("degraded_sub_reads", rep.DegradedSubReads),
			obs.A("checksum_failures", rep.ChecksumFailures), obs.A("lost", len(rep.LostSegments)))
	}()
	// The critical section is the shard-map lookup alone: all column
	// reads below run lock-free against the immutable object descriptor,
	// so a slow degraded Get never blocks an unrelated Put. Only a read
	// an UpdateSegment of the same object overlapped repeats under that
	// object's update lock (see objRead).
	obj, ok := s.objects.get(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	rd := objRead{obj: obj, epoch: obj.version.Load()}
	out := s.getOnce(obj, rep, &rd)
	if rd.overlapped() {
		obj.updateMu.Lock()
		*rep = GetReport{}
		out = s.getOnce(obj, rep, &objRead{obj: obj, locked: true})
		obj.updateMu.Unlock()
	}
	return out, rep, nil
}

// getOnce is one attempt at reading every segment of the object; the
// caller discards the result when rd ends up torn.
func (s *Store) getOnce(obj *object, rep *GetReport, rd *objRead) []Segment {
	// One arena sized from the extents holds every segment's bytes; each
	// segment gets arena[a:b:b], the capacity capped so a caller's append
	// cannot run into its neighbour. fill[pos] is where segment pos's
	// next extent lands. The arena starts zeroed, which is the fill for
	// lost extents.
	out := make([]Segment, len(obj.segments))
	fill := make([]int, len(obj.segments))
	total := 0
	for pos := range obj.segments {
		fill[pos] = total
		for _, e := range obj.segExt[pos] {
			total += e.length
		}
	}
	arena := make([]byte, total)
	for pos, meta := range obj.segments {
		end := total
		if pos+1 < len(fill) {
			end = fill[pos+1]
		}
		out[pos] = Segment{ID: meta.ID, Important: meta.Important, Data: arena[fill[pos]:end:end]}
	}
	lost := make([]bool, len(obj.segments))
	// Group extents per stripe (the read planner needs the full set a
	// stripe must serve), then cache assembled stripes and decoded
	// sub-blocks.
	byStripe := make(map[int][]extent)
	for _, e := range obj.extents {
		byStripe[e.stripe] = append(byStripe[e.stripe], e)
	}
	stripeCache := make(map[int]*stripeRead)
	blockCache := make(map[[3]int][]byte)
	for _, e := range obj.extents {
		if rd.torn {
			return nil
		}
		pos, ok := obj.segPos[e.seg]
		if !ok {
			continue
		}
		sr, ok := stripeCache[e.stripe]
		if !ok {
			sr = s.readStripeForGet(obj, e.stripe, byStripe[e.stripe], rep, rd)
			stripeCache[e.stripe] = sr
		}
		key := [3]int{e.stripe, e.node, e.row}
		block, ok := blockCache[key]
		if !ok {
			var decoded bool
			var err error
			block, decoded, err = s.stripeSubBlock(sr, e.node, e.row)
			if err != nil && sr.planned {
				// The planned set could not serve this sub-block after
				// all — take the full-stripe final rung for the stripe.
				s.metrics.planFallbacks.Inc()
				cols, demoted := s.readStripe(obj, e.stripe, rd)
				rep.ChecksumFailures += len(demoted)
				sr = &stripeRead{cols: cols}
				stripeCache[e.stripe] = sr
				block, decoded, err = s.stripeSubBlock(sr, e.node, e.row)
			}
			if err != nil {
				block = nil
			}
			if decoded {
				rep.DegradedSubReads++
				s.metrics.degradedSubReads.Inc()
			}
			blockCache[key] = block
		}
		dst := arena[fill[pos] : fill[pos]+e.length]
		fill[pos] += e.length
		if block == nil {
			lost[pos] = true
			continue
		}
		copy(dst, block[e.off:e.off+e.length])
	}
	for pos, l := range lost {
		if !l {
			continue
		}
		rep.LostSegments = append(rep.LostSegments, out[pos].ID)
		if !out[pos].Important {
			rep.Approximate = append(rep.Approximate, out[pos].ID)
		}
	}
	sort.Ints(rep.LostSegments)
	sort.Ints(rep.Approximate)
	return out
}

// GetSegment returns a single segment, decoding around failures. It
// returns ErrUnavailable when the segment's data cannot be recovered.
//
// The fast path (getSegmentFast) moves exactly the segment's bytes when
// its nodes are healthy, and otherwise only the segment's own sub-block
// ranges, decoding erased sub-blocks from their codeword's minimal
// survivor set. When planning or verification cannot apply — legacy
// objects without sub-checksums, beyond-tolerance losses — it falls
// back to the whole-object read.
func (s *Store) GetSegment(name string, id int) (Segment, error) {
	if err := s.admit.acquire("GetSegment"); err != nil {
		return Segment{}, err
	}
	defer s.admit.release()
	defer s.metrics.opGetSegment.Start().Stop()
	s.tracker.Touch(name)
	obj, ok := s.objects.get(name)
	if !ok {
		return Segment{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	pos, ok := obj.segPos[id]
	if !ok {
		return Segment{}, fmt.Errorf("%w: segment %d", ErrNotFound, id)
	}
	seg := Segment{ID: id, Important: obj.segments[pos].Important}
	// The epoch (data version) captured before the read keys both the
	// cache lookup and the later insert, so a result read concurrently
	// with an update can only land under the old epoch — unreachable
	// once the update bumps it.
	rd := objRead{obj: obj, epoch: obj.version.Load()}
	// Hot-tier objects consult the decoded-segment cache first: a hit
	// is a map lookup plus one copy, no NodeIO at all.
	if seg.Data, ok = s.cacheGet(obj, id, rd.epoch); ok {
		return seg, nil
	}
	seg.Data, ok = s.getSegmentFast(obj, pos, &rd)
	if rd.overlapped() {
		obj.updateMu.Lock()
		rd = objRead{obj: obj, epoch: obj.version.Load(), locked: true}
		seg.Data, ok = s.getSegmentFast(obj, pos, &rd)
		obj.updateMu.Unlock()
	}
	if ok {
		s.cachePut(obj, id, rd.epoch, seg.Data)
		return seg, nil
	}
	s.metrics.planFallbacks.Inc()
	segs, rep, err := s.get(name)
	if err != nil {
		return Segment{}, err
	}
	for _, l := range rep.LostSegments {
		if l == id {
			return Segment{}, fmt.Errorf("%w: segment %d", ErrUnavailable, id)
		}
	}
	// A whole-object read that ran at a later epoch than rd's lands
	// under a key no lookup will use again — wasted, never wrong.
	s.cachePut(obj, id, rd.epoch, segs[pos].Data)
	return segs[pos], nil
}

// FailNodes marks nodes as failed, dropping their contents (a crash).
// On a durable store the transition is journaled first, so the failure
// set survives a crash and repair never resurrects wiped data.
func (s *Store) FailNodes(ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= len(s.nodes) {
			return fmt.Errorf("%w: node %d out of range", ErrInvalid, id)
		}
	}
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	s.crash("fail.before-journal")
	if err := s.journalAppend(recFailNodes, failRecord{Nodes: ids}); err != nil {
		return err
	}
	s.crash("fail.after-journal")
	s.applyFailNodes(ids)
	return nil
}

// applyFailNodes performs the wipe (also the journal replay path).
func (s *Store) applyFailNodes(ids []int) {
	// Node loss can end in zero-filled segments after repair; drop the
	// whole read cache so post-failure reads re-derive every byte from
	// the surviving columns instead of a pre-failure snapshot.
	s.cache.Purge()
	// Exclude in-flight UpdateSegment calls: their healthy-stripe check
	// must stay valid until their copy-on-write swap has landed.
	s.failMu.Lock()
	defer s.failMu.Unlock()
	for _, id := range ids {
		if id < 0 || id >= len(s.nodes) {
			continue
		}
		nd := s.nodes[id]
		nd.mu.Lock()
		nd.failed = true
		nd.columns = make(map[string][][]byte)
		nd.mu.Unlock()
	}
}

// FailedNodes lists the currently failed node indexes.
func (s *Store) FailedNodes() []int {
	var out []int
	for i, nd := range s.nodes {
		nd.mu.RLock()
		if nd.failed {
			out = append(out, i)
		}
		nd.mu.RUnlock()
	}
	return out
}

// unfailNode clears a node's crash flag and health history (it has just
// been re-provisioned).
func (s *Store) unfailNode(ni int) {
	nd := s.nodes[ni]
	nd.mu.Lock()
	nd.failed = false
	nd.mu.Unlock()
	s.health.Reset(ni)
}

func isFailedIdx(failed []int, ni int) bool {
	for _, f := range failed {
		if f == ni {
			return true
		}
	}
	return false
}

// segmentsTouching maps lost sub-blocks to the segment IDs with bytes in
// them.
func segmentsTouching(obj *object, stripe int, lost []core.SubBlock) []int {
	seen := make(map[int]bool)
	for _, sb := range lost {
		for _, e := range obj.extents {
			if e.stripe == stripe && e.node == sb.Node && e.row == sb.Row {
				seen[e.seg] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func mergeSorted(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// ScrubReport summarizes a scrub pass.
type ScrubReport struct {
	// StripesChecked counts stripes whose parity was fully verified.
	StripesChecked int
	// StripesSkipped counts stripes left unchecked because columns were
	// missing (crashed nodes) — repair's business, not scrub's.
	StripesSkipped int
	// ChecksumFailures counts columns whose bytes did not match their
	// stored CRC-32C.
	ChecksumFailures int
	// Healed counts checksum-failed columns rebuilt from survivors and
	// written back in place (read-repair).
	Healed int
	// Corrupt lists "object/stripe" identifiers the scrub could not
	// verify or heal.
	Corrupt []string
	// PlacementViolations counts broken survival invariants of the
	// store's (code, topology) pair — see place.Check. Reported, never
	// failed on: a legacy flat store (or pre-topology objects loaded
	// under one) scrubs clean but surfaces its correlated-failure
	// exposure here.
	PlacementViolations int
}

// Scrub verifies every stored stripe in parallel: each column is read
// through the checksum-verifying path, columns that fail their CRC-32C
// are rebuilt from survivors and written back (read-repair), and the
// stripe's parity relations are then verified end to end. Stripes with
// columns on crashed nodes are skipped (they are repair's business, not
// scrub's); stripes that cannot be healed are listed as corrupt.
func (s *Store) Scrub() (*ScrubReport, error) {
	defer s.metrics.opScrub.Start().Stop()
	rep := &ScrubReport{PlacementViolations: len(s.topoReport.Violations)}
	sp := s.metrics.reg.StartSpan("store.Scrub")
	defer func() {
		sp.End(obs.A("stripes_checked", rep.StripesChecked), obs.A("checksum_failures", rep.ChecksumFailures),
			obs.A("healed", rep.Healed), obs.A("corrupt", len(rep.Corrupt)))
	}()
	type job struct {
		obj    *object
		stripe int
	}
	var jobs []job
	for _, obj := range s.objects.snapshot() {
		for st := 0; st < obj.stripes; st++ {
			jobs = append(jobs, job{obj, st})
		}
	}
	var mu sync.Mutex
	workers := s.cfg.RepairWorkers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 0 {
		return rep, nil
	}
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				rd := objRead{obj: j.obj, epoch: j.obj.version.Load()}
				cols, demoted := s.readStripe(j.obj, j.stripe, &rd)
				if len(demoted) > 0 || rd.overlapped() {
					// The lock-free pass either found damage or was torn
					// by an UpdateSegment in flight (columns written,
					// checksums not yet published — see objRead). Re-read
					// under the object's update lock — updates hold it
					// across their writes AND checksum publication — so a
					// demote that survives is genuinely damaged bytes, and
					// the heal below cannot roll back a racing update. The
					// quiesce fence (taken first: it orders before
					// updateMu) keeps the write-back and its checksum
					// publication inside one Save snapshot.
					s.quiesce.RLock()
					j.obj.updateMu.Lock()
					cols, demoted = s.readStripe(j.obj, j.stripe, nil)
					var healedNow int
					if len(demoted) > 0 {
						mu.Lock()
						rep.ChecksumFailures += len(demoted)
						mu.Unlock()
						r, err := s.reconstructForHeal(cols, demoted)
						if err != nil || len(r.Lost) > 0 {
							mu.Lock()
							rep.Corrupt = append(rep.Corrupt, fmt.Sprintf("%s/%d", j.obj.name, j.stripe))
							mu.Unlock()
							j.obj.updateMu.Unlock()
							s.quiesce.RUnlock()
							continue
						}
						// Write the healed columns back in place (skipping
						// nodes that crashed meanwhile — repair's job).
						sums := make(map[int]uint32)
						subUp := make(map[int][]uint32)
						w := s.columnWriter(j.obj.name, false)
						var written []int
						for _, ni := range demoted {
							if cols[ni] != nil && !s.nodeFailed(ni) {
								w.add(ni, j.stripe, cols[ni])
								written = append(written, ni)
							}
						}
						failed := w.flush()
						for _, ni := range written {
							if failed[ni] == nil {
								sums[ni], subUp[ni] = s.colSums(cols[ni])
							}
						}
						j.obj.setSums(j.stripe, len(s.nodes), sums)
						j.obj.setSubSums(j.stripe, len(s.nodes), subUp)
						healedNow = len(sums)
					}
					j.obj.updateMu.Unlock()
					s.quiesce.RUnlock()
					s.metrics.shardsHealed.Add(int64(healedNow))
					mu.Lock()
					rep.Healed += healedNow
					mu.Unlock()
				}
				complete := true
				for _, c := range cols {
					if c == nil {
						complete = false
						break
					}
				}
				if !complete {
					mu.Lock()
					rep.StripesSkipped++
					mu.Unlock()
					continue
				}
				ok, err := s.code.Verify(cols)
				mu.Lock()
				rep.StripesChecked++
				if err != nil || !ok {
					rep.Corrupt = append(rep.Corrupt, fmt.Sprintf("%s/%d", j.obj.name, j.stripe))
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	sort.Strings(rep.Corrupt)
	rep.Corrupt = dedupeSorted(rep.Corrupt)
	return rep, nil
}

// dedupeSorted removes adjacent duplicates from a sorted slice.
func dedupeSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// CorruptByte flips one byte of an object's stored column — test and
// demo hook for the scrubber.
func (s *Store) CorruptByte(name string, stripe, nodeIdx, offset int) error {
	if nodeIdx < 0 || nodeIdx >= len(s.nodes) {
		return fmt.Errorf("store: node %d out of range", nodeIdx)
	}
	nd := s.nodes[nodeIdx]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	cols := nd.columns[name]
	if cols == nil || stripe >= len(cols) || cols[stripe] == nil {
		return fmt.Errorf("%w: %s/%d on node %d", ErrNotFound, name, stripe, nodeIdx)
	}
	if offset < 0 || offset >= len(cols[stripe]) {
		return fmt.Errorf("store: offset %d out of range", offset)
	}
	cols[stripe][offset] ^= 0xFF
	return nil
}

// Objects lists stored object names.
func (s *Store) Objects() []string {
	return s.objects.names()
}

// ObjectStripes reports how many stripes an object spans, or false if
// no such object exists. The count is fixed at ingest, so callers can
// forward it to external placement maps (a netio master) without
// racing writers.
func (s *Store) ObjectStripes(name string) (int, bool) {
	obj, ok := s.objects.get(name)
	if !ok {
		return 0, false
	}
	return obj.stripes, true
}

// Stats reports store-wide counters, including the robustness
// telemetry of the self-healing I/O path.
type Stats struct {
	Objects, Nodes, FailedNodes int
	// SuspectNodes / DownNodes count nodes the health state machine
	// currently holds in suspect / failed.
	SuspectNodes, DownNodes int
	StoredBytes             int64
	// Retries counts I/O attempts beyond the first; Hedges counts
	// hedged (backup) reads fired against stragglers, HedgeWins how
	// often the hedge answered first.
	Retries, Hedges, HedgeWins int64
	// ReadErrors counts failed read attempts (after unwrapping retries).
	ReadErrors int64
	// ChecksumFailures counts columns demoted to erasures because their
	// bytes did not match the stored CRC-32C.
	ChecksumFailures int64
	// ChecksumDemotions counts demotions across every read path
	// (whole-column and partial-read fast path alike); each also feeds
	// the health FSM's corruption streak.
	ChecksumDemotions int64
	// ShardsHealed counts columns rebuilt and written back by scrub and
	// repair.
	ShardsHealed int64
	// DegradedSubReads counts sub-blocks decoded from survivors instead
	// of read directly.
	DegradedSubReads int64
	// TierPromotions / TierDemotions count completed tier migrations
	// toward hotter / colder redundancy.
	TierPromotions, TierDemotions int64
	// CacheHits / CacheMisses count decoded-segment cache lookups for
	// hot-tier objects.
	CacheHits, CacheMisses int64
}

// Stats returns current store statistics.
func (s *Store) Stats() Stats {
	st := Stats{Nodes: len(s.nodes), Objects: s.objects.count()}
	for _, nd := range s.nodes {
		nd.mu.RLock()
		if nd.failed {
			st.FailedNodes++
		}
		for _, cols := range nd.columns {
			for _, c := range cols {
				st.StoredBytes += int64(len(c))
			}
		}
		nd.mu.RUnlock()
	}
	st.SuspectNodes, st.DownNodes = s.healthCounts()
	// Thin view over the obs registry: each field is one atomic load of
	// the counter the hot paths update in place.
	st.Retries = s.metrics.retries.Value()
	st.Hedges = s.metrics.hedges.Value()
	st.HedgeWins = s.metrics.hedgeWins.Value()
	st.ReadErrors = s.metrics.readErrors.Value()
	st.ChecksumFailures = s.metrics.checksumFailures.Value()
	st.ChecksumDemotions = s.metrics.checksumDemotions.Value()
	st.ShardsHealed = s.metrics.shardsHealed.Value()
	st.DegradedSubReads = s.metrics.degradedSubReads.Value()
	st.TierPromotions = s.metrics.tierPromotions.Value()
	st.TierDemotions = s.metrics.tierDemotions.Value()
	st.CacheHits = s.metrics.cacheHits.Value()
	st.CacheMisses = s.metrics.cacheMisses.Value()
	return st
}

// NodeHealth returns every node's current health state.
func (s *Store) NodeHealth() []HealthState {
	out := make([]HealthState, len(s.nodes))
	for i := range out {
		out[i] = s.health.State(i)
	}
	return out
}

// healthCounts tallies nodes per non-healthy state.
func (s *Store) healthCounts() (suspect, failed int) {
	for _, st := range s.NodeHealth() {
		switch st {
		case HealthSuspect:
			suspect++
		case HealthFailed:
			failed++
		}
	}
	return
}
