package store

import (
	"sync"
	"sync/atomic"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	"approxcode/internal/obs"
)

// The repair orchestrator replaces the old monolithic RepairAll with a
// checkpointed, prioritized, rate-limited run:
//
//   - Stripes are queued in two tiers and tier 0 is fully drained
//     before tier 1 starts. Tier 0 holds every stripe whose rebuild
//     recovers important data (an important segment's extent on a
//     failed data node) or parity protecting it (failed global-parity
//     or important-row local-parity columns); tier 1 is the best-effort
//     remainder. Under partial repair the paper's priority inverts
//     gracefully: the frames interpolation cannot fake come back first.
//   - On a durable store every repaired stripe is checkpointed into the
//     write-ahead journal together with its rebuilt column bytes, so
//     completed work survives a crash: recovery replays the columns and
//     a resumed run (RepairOptions.Resume) skips straight past them.
//   - Progress can be paused, resumed, and aborted; an optional token
//     bucket caps the write-back bandwidth so repair does not starve
//     foreground I/O.

// RepairReport summarizes a repair run.
type RepairReport struct {
	// StripesRepaired counts (object, stripe) pairs processed.
	StripesRepaired int
	// StripesSkipped counts stripes left untouched because they could
	// not be reconstructed during this run (e.g. a node failed while
	// the repair was running); a later run retries them.
	StripesSkipped int
	// StripesResumed counts stripes skipped because a previous
	// interrupted run had already checkpointed them.
	StripesResumed int
	// ShardsHealed counts columns written back: rebuilt crash losses,
	// checksum-demoted columns, and re-encoded parity.
	ShardsHealed int
	// BytesRebuilt counts bytes written to replacement nodes.
	BytesRebuilt int64
	// BytesRead counts survivor bytes read off the nodes to feed the
	// rebuilds — the repair's network traffic. Minimal-read planning
	// exists to shrink this number; the full-stripe fallback reads every
	// surviving column.
	BytesRead int64
	// BytesReadRackLocal / BytesReadCrossRack split BytesRead by the
	// store's topology: a survivor byte is rack-local when its column
	// shares a rack with a failed node being rebuilt. Under rack-aware
	// placement LRC local repair moves only rack-local bytes; under
	// scatter (topology-oblivious) placement the same repair crosses
	// racks. On a flat single-rack topology everything is trivially
	// rack-local.
	BytesReadRackLocal int64
	BytesReadCrossRack int64
	// LostSegments maps object name -> segment IDs with unrecoverable
	// bytes (zero-filled on the replacement). Checkpointed losses from
	// a resumed run carry over.
	LostSegments map[string][]int
	// Aborted reports the run was stopped before draining its queue;
	// failed nodes stay failed and a resumed run picks up from the
	// last checkpoint.
	Aborted bool
}

// RepairOptions tunes a repair run.
type RepairOptions struct {
	// Workers bounds rebuild parallelism (default Config.RepairWorkers).
	Workers int
	// MaxBytesPerSec caps write-back bandwidth across all workers via a
	// token bucket; 0 means unlimited.
	MaxBytesPerSec int64
	// Resume continues an interrupted run: stripes its journal
	// checkpoints cover are skipped. Without pending state this is a
	// plain full run.
	Resume bool
}

// RepairProgress is a point-in-time view of a run.
type RepairProgress struct {
	// Total is the stripes queued (after resume skips); Done of those
	// are finished (repaired or skipped), QueueDepth remain.
	Total, Done, QueueDepth int
	// Tier0Remaining counts unfinished important-tier stripes; the
	// best-effort tier does not start until it reaches zero.
	Tier0Remaining int
	// BytesRepaired counts bytes written back so far; BytesRead counts
	// survivor bytes read to feed those rebuilds.
	BytesRepaired int64
	BytesRead     int64
	Paused        bool
	Aborted       bool
}

// pendingRepair is the durable state of an interrupted run, rebuilt
// from journal checkpoints by recovery (or kept in memory by Abort).
type pendingRepair struct {
	id     uint64
	failed []int
	done   map[string]map[int]bool // object -> checkpointed stripes
	lost   map[string][]int        // object -> abandoned segment IDs
}

func (p *pendingRepair) checkpoint(object string, stripe int, lost []int) {
	set := p.done[object]
	if set == nil {
		set = make(map[int]bool)
		p.done[object] = set
	}
	set[stripe] = true
	if len(lost) > 0 {
		p.lost[object] = mergeSorted(p.lost[object], lost)
	}
}

// repairJob is one (object, stripe) rebuild.
type repairJob struct {
	obj    *object
	stripe int
	tier   int
}

// Repair is a handle on an in-flight repair run.
type Repair struct {
	s    *Store
	id   uint64
	opts RepairOptions
	rate *rateLimiter
	done chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	paused    bool
	aborted   bool
	crashErr  *chaos.CrashError
	total     int
	completed int
	tier0Left int
	bytes     int64
	readBytes int64
	doneSet   *pendingRepair
	report    *RepairReport
	err       error
	failedSet []int
	writeBad  map[int]bool

	// failedRacks is the rack set of the failed nodes this run rebuilds;
	// rackLocal/crossRack split survivor read traffic by whether the
	// column read shares a rack with the failure (atomics: the worker
	// pool accounts reads concurrently).
	failedRacks map[string]bool
	rackLocal   atomic.Int64
	crossRack   atomic.Int64
}

// accountRead classifies n survivor bytes read from node ni as
// rack-local (the column shares a rack with a failure being rebuilt —
// LRC local repair under rack-aware placement stays entirely here) or
// cross-rack (global-parity decode traffic, or any survivor read under
// scatter placement).
func (r *Repair) accountRead(ni int, n int64) {
	if n == 0 {
		return
	}
	if r.failedRacks[r.s.topo.RackOf(ni)] {
		r.rackLocal.Add(n)
		r.s.metrics.repairBytesRackLocal.Add(n)
	} else {
		r.crossRack.Add(n)
		r.s.metrics.repairBytesCrossRack.Add(n)
	}
}

// StartRepair launches an asynchronous repair run (one at a time per
// store; a second call fails with ErrRepairActive). Health-failed nodes
// are folded into the crash-failed set first, exactly as RepairAll did.
func (s *Store) StartRepair(opts RepairOptions) (*Repair, error) {
	s.repairMu.Lock()
	if s.repairing {
		s.repairMu.Unlock()
		return nil, ErrRepairActive
	}
	s.repairing = true
	pending := s.pending
	s.pending = nil
	s.repairMu.Unlock()

	release := func() {
		s.repairMu.Lock()
		s.repairing = false
		s.repairMu.Unlock()
	}
	// Health-failed nodes are rebuilt like crashed ones: wipe whatever
	// they hold (it is untrustworthy) and reconstruct from survivors.
	// This goes through the public journaled path before any checkpoint
	// exists, so recovery sees the same failed set this run saw.
	var hf []int
	for ni, st := range s.NodeHealth() {
		if st == HealthFailed {
			hf = append(hf, ni)
		}
	}
	if len(hf) > 0 {
		if err := s.FailNodes(hf...); err != nil {
			release()
			return nil, err
		}
	}
	if opts.Workers <= 0 {
		opts.Workers = s.cfg.RepairWorkers
	}
	r := &Repair{
		s:      s,
		opts:   opts,
		rate:   newRateLimiter(opts.MaxBytesPerSec),
		done:   make(chan struct{}),
		report: &RepairReport{LostSegments: make(map[string][]int)},
		doneSet: &pendingRepair{
			done: make(map[string]map[int]bool),
			lost: make(map[string][]int),
		},
	}
	r.cond = sync.NewCond(&r.mu)
	if opts.Resume && pending != nil {
		r.doneSet.done = pending.done
		r.doneSet.lost = pending.lost
		for obj, ids := range pending.lost {
			r.report.LostSegments[obj] = mergeSorted(r.report.LostSegments[obj], ids)
		}
		s.metrics.repairsResumed.Inc()
	}
	go r.run()
	return r, nil
}

// RepairAll rebuilds every failed node's contents onto fresh replacement
// nodes (same indexes) and marks them healthy, healing checksum-demoted
// columns along the way; unimportant data beyond the code's tolerance
// is zero-filled and reported per segment. It is the synchronous
// facade over the orchestrator: important and global-parity stripes are
// repaired first, and on a durable store progress is checkpointed so an
// interrupted call resumes via StartRepair's Resume option.
func (s *Store) RepairAll() (*RepairReport, error) {
	r, err := s.StartRepair(RepairOptions{})
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Wait blocks until the run finishes and returns its report. When a
// chaos crash point fired inside the run, Wait re-panics it in the
// caller's goroutine so a crash-matrix harness observes the simulated
// kill exactly as for synchronous operations.
func (r *Repair) Wait() (*RepairReport, error) {
	<-r.done
	r.mu.Lock()
	ce := r.crashErr
	r.mu.Unlock()
	if ce != nil {
		panic(ce)
	}
	return r.report, r.err
}

// Pause suspends the run after in-flight stripes finish; Resume
// continues it. Checkpointed progress is unaffected.
func (r *Repair) Pause() {
	r.mu.Lock()
	r.paused = true
	r.mu.Unlock()
}

// Resume continues a paused run.
func (r *Repair) Resume() {
	r.mu.Lock()
	r.paused = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Abort stops the run after in-flight stripes finish. Failed nodes stay
// failed; checkpointed progress is kept (durably on a journaled store,
// in memory otherwise) so StartRepair with Resume continues from it.
func (r *Repair) Abort() {
	r.mu.Lock()
	r.aborted = true
	r.paused = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Progress returns a point-in-time view of the run.
func (r *Repair) Progress() RepairProgress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RepairProgress{
		Total:          r.total,
		Done:           r.completed,
		QueueDepth:     r.total - r.completed,
		Tier0Remaining: r.tier0Left,
		BytesRepaired:  r.bytes,
		BytesRead:      r.readBytes,
		Paused:         r.paused,
		Aborted:        r.aborted,
	}
}

// gate blocks while paused; it reports whether the worker should keep
// going (false on abort).
func (r *Repair) gate() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.paused && !r.aborted {
		r.cond.Wait()
	}
	return !r.aborted
}

// guard runs fn, converting a crash-point panic into run state: the
// first crash is recorded (Wait re-panics it) and the run aborts, which
// approximates the whole process dying at that instant. Other panics
// propagate.
func (r *Repair) guard(fn func()) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ce, ok := p.(*chaos.CrashError)
		if !ok {
			panic(p)
		}
		r.mu.Lock()
		if r.crashErr == nil {
			r.crashErr = ce
		}
		r.aborted = true
		r.cond.Broadcast()
		r.mu.Unlock()
	}()
	fn()
}

// run is the orchestrator body.
func (r *Repair) run() {
	s := r.s
	defer s.metrics.opRepair.Start().Stop()
	sp := s.metrics.reg.StartSpan("store.RepairAll")
	defer close(r.done)
	defer func() {
		s.repairMu.Lock()
		s.repairing = false
		// An interrupted run parks its progress for a Resume without an
		// intervening recovery (recovery rebuilds the same state from
		// the journal checkpoints).
		if r.report.Aborted || r.crashErr != nil {
			r.doneSet.id = r.id
			r.doneSet.failed = r.failedSet
			s.pending = r.doneSet
		}
		s.repairMu.Unlock()
		s.metrics.repairQueueDepth.Set(0)
		r.report.BytesReadRackLocal = r.rackLocal.Load()
		r.report.BytesReadCrossRack = r.crossRack.Load()
		sp.End(obs.A("stripes_repaired", r.report.StripesRepaired),
			obs.A("stripes_skipped", r.report.StripesSkipped),
			obs.A("stripes_resumed", r.report.StripesResumed),
			obs.A("shards_healed", r.report.ShardsHealed),
			obs.A("bytes_rebuilt", r.report.BytesRebuilt),
			obs.A("bytes_read", r.report.BytesRead),
			obs.A("aborted", r.report.Aborted))
	}()
	r.guard(func() {
		rep := r.report
		r.failedSet = s.FailedNodes()
		r.failedRacks = make(map[string]bool, len(r.failedSet))
		for _, ni := range r.failedSet {
			r.failedRacks[s.topo.RackOf(ni)] = true
		}
		r.writeBad = make(map[int]bool)
		jobs := s.repairQueue(r.failedSet, r.doneSet, rep)
		if len(jobs) == 0 || len(r.failedSet) == 0 {
			// Nothing stored or nothing crashed; there may still be
			// checksum-demoted columns, but those are scrub's business.
			for _, ni := range r.failedSet {
				s.unfailNode(ni)
			}
			return
		}
		// Open the run in the journal: its ID (the record's sequence
		// number) scopes every checkpoint that follows.
		r.id = 1
		func() {
			s.quiesce.RLock()
			defer s.quiesce.RUnlock()
			s.crash("repair.start")
			if s.jn != nil {
				seq, err := s.jn.append(recRepairStart, repairStartRecord{Failed: r.failedSet})
				if err != nil {
					r.err = err
					return
				}
				r.id = seq
			}
		}()
		if r.err != nil {
			return
		}
		var tiers [2][]repairJob
		for _, j := range jobs {
			tiers[j.tier] = append(tiers[j.tier], j)
		}
		r.mu.Lock()
		r.total = len(jobs)
		r.tier0Left = len(tiers[0])
		r.mu.Unlock()
		s.metrics.repairQueueDepth.Set(int64(len(jobs)))
		// The tier barrier: every important/global-parity stripe is
		// committed before the first best-effort stripe starts.
		r.runPool(tiers[0])
		r.runPool(tiers[1])

		r.mu.Lock()
		aborted := r.aborted
		r.mu.Unlock()
		if aborted {
			rep.Aborted = true
			return
		}
		// Close the run: journal which nodes come back, then unfail
		// them. A node whose write-backs kept failing stays failed (its
		// rebuild is incomplete); the next run retries it.
		func() {
			s.quiesce.RLock()
			defer s.quiesce.RUnlock()
			s.crash("repair.before-done")
			var unfailed []int
			for _, ni := range r.failedSet {
				if !r.writeBad[ni] {
					unfailed = append(unfailed, ni)
				}
			}
			if err := s.journalAppend(recRepairDone, repairDoneRecord{ID: r.id, Unfailed: unfailed}); err != nil {
				r.err = err
				return
			}
			s.crash("repair.after-done")
			for _, ni := range unfailed {
				s.unfailNode(ni)
			}
		}()
	})
}

// repairQueue builds the prioritized job list, skipping stripes a
// resumed run already checkpointed.
func (s *Store) repairQueue(failed []int, doneSet *pendingRepair, rep *RepairReport) []repairJob {
	objs := s.objects.snapshot()
	var jobs []repairJob
	for _, obj := range objs {
		important := make(map[int]bool, len(obj.segments))
		for _, seg := range obj.segments {
			important[seg.ID] = seg.Important
		}
		for st := 0; st < obj.stripes; st++ {
			if doneSet.done[obj.name][st] {
				rep.StripesResumed++
				continue
			}
			jobs = append(jobs, repairJob{obj: obj, stripe: st, tier: s.stripeTier(obj, st, failed, important)})
		}
	}
	return jobs
}

// stripeTier classifies a rebuild: tier 0 when it recovers important
// data or the parity protecting it, tier 1 for the best-effort rest.
func (s *Store) stripeTier(obj *object, stripe int, failed []int, important map[int]bool) int {
	for _, ni := range failed {
		switch s.code.Role(ni) {
		case core.RoleGlobalParity:
			// Global parity exists to push important data past the base
			// code's tolerance; rebuilding it is always urgent.
			return 0
		case core.RoleLocalParity:
			// A local parity column covering important rows guards the
			// same sub-stripes as the data it protects.
			p := s.code.Params()
			for m := 0; m < p.H; m++ {
				if imp, err := s.code.SubBlockImportant(ni, m); err == nil && imp {
					return 0
				}
			}
		case core.RoleData:
			for _, e := range obj.extents {
				if e.stripe == stripe && e.node == ni && important[e.seg] {
					return 0
				}
			}
		}
	}
	return 1
}

// runPool drains one tier's jobs with the worker pool.
func (r *Repair) runPool(jobs []repairJob) {
	if len(jobs) == 0 {
		return
	}
	workers := r.opts.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.guard(func() {
				for {
					if !r.gate() {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					r.repairStripe(jobs[i])
					r.mu.Lock()
					r.completed++
					if jobs[i].tier == 0 {
						r.tier0Left--
					}
					depth := int64(r.total - r.completed)
					r.mu.Unlock()
					r.s.metrics.repairQueueDepth.Set(depth)
				}
			})
		}()
	}
	wg.Wait()
}

// repairStripe rebuilds one stripe: plan the minimal survivor set for
// the failed nodes, read and verify exactly those columns, and rebuild
// the losses — escalating to the full-stripe read when planning cannot
// apply (beyond-tolerance patterns needing the approximate-loss
// re-encode, or escalation running out of survivors). Rebuilt columns
// are checkpointed into the journal and written back as before.
func (r *Repair) repairStripe(j repairJob) {
	s := r.s
	rep := r.report
	cols, demoted, rr, readBytes := r.plannedRepairRead(j)
	if rr == nil {
		// Final rung: full-stripe read + best-effort reconstruction
		// (the pre-planning behaviour, including approximate loss).
		s.metrics.planFallbacks.Inc()
		cols, demoted = s.readStripe(j.obj, j.stripe, nil)
		for ni, c := range cols {
			readBytes += int64(len(c))
			r.accountRead(ni, int64(len(c)))
		}
		var err error
		rr, err = s.code.ReconstructReport(cols, core.Options{})
		if err != nil {
			// Unreconstructable right now — typically a node failed
			// mid-repair. Skip rather than abort: the stripe stays degraded
			// and a later run retries.
			r.mu.Lock()
			rep.StripesSkipped++
			r.mu.Unlock()
			return
		}
	}
	// When unimportant data is abandoned (zero-filled), the surviving
	// parity still encodes the lost bytes. Accept the loss by
	// recomputing every parity column against the post-loss data so the
	// stripe is self-consistent. Fresh buffers are used so concurrent
	// readers of the old columns stay consistent; the swap below is
	// per-node atomic under its lock.
	reencoded := map[int][]byte{}
	if len(rr.Lost) > 0 {
		fresh := make([][]byte, len(cols))
		for ni, c := range cols {
			if s.code.Role(ni) == core.RoleData {
				fresh[ni] = c
			}
		}
		if err := s.code.Encode(fresh); err != nil {
			r.mu.Lock()
			rep.StripesSkipped++
			r.mu.Unlock()
			return
		}
		for ni := range cols {
			if s.code.Role(ni) != core.RoleData {
				reencoded[ni] = fresh[ni]
			}
		}
	}
	// Assemble the write set: rebuilt failed columns, healed
	// checksum-demoted columns, re-encoded parity.
	demotedSet := make(map[int]bool, len(demoted))
	for _, ni := range demoted {
		demotedSet[ni] = true
	}
	writeSet := make(map[int][]byte)
	sums := make(map[int]uint32)
	subs := make(map[int][]uint32)
	var writeBytes int64
	for ni := range s.nodes {
		col := cols[ni]
		if p, ok := reencoded[ni]; ok {
			col = p
		} else if !isFailedIdx(r.failedSet, ni) && !demotedSet[ni] {
			continue // surviving clean data column, untouched
		}
		if col == nil {
			continue
		}
		if s.tierDropsColumn(j.obj, ni) {
			// A cold object stores no global parity: the rebuild (or
			// re-encode) derived it in memory, but writing it back would
			// resurrect redundancy the tier demotion deleted.
			continue
		}
		writeSet[ni] = col
		sums[ni], subs[ni] = s.colSums(col)
		writeBytes += int64(len(col))
	}
	var lostSegs []int
	if len(rr.Lost) > 0 {
		lostSegs = segmentsTouching(j.obj, j.stripe, rr.Lost)
		// Abandoned bytes are zero-filled: bump the data epoch so no
		// cached decoded segment keyed before the loss can serve stale
		// pre-failure bytes (belt-and-braces — FailNodes already purged).
		// By 2: odd is reserved for an update in flight.
		j.obj.version.Add(2)
	}
	// Bandwidth budget covers the whole repair traffic of the stripe:
	// survivor bytes read plus rebuilt bytes written back.
	r.rate.take(readBytes + writeBytes)
	// Checkpoint first (write-ahead): once the record is synced the
	// stripe's rebuild is durable — recovery replays the columns even if
	// the process dies before the writes below land.
	func() {
		s.quiesce.RLock()
		defer s.quiesce.RUnlock()
		s.crash("repair.before-checkpoint")
		if err := s.journalAppend(recRepairStripe, repairStripeRecord{
			ID: r.id, Object: j.obj.name, Stripe: j.stripe,
			Cols: writeSet, Sums: sums, Lost: lostSegs,
		}); err != nil {
			// An unjournalable checkpoint degrades to skip: the stripe
			// stays queued for a later run rather than risking a commit
			// recovery cannot see.
			r.mu.Lock()
			rep.StripesSkipped++
			r.mu.Unlock()
			return
		}
		s.crash("repair.after-checkpoint")
		w := s.columnWriter(j.obj.name, false)
		for ni, col := range writeSet {
			w.add(ni, j.stripe, col)
		}
		failed := w.flush()
		for ni := range failed {
			r.mu.Lock()
			r.writeBad[ni] = true
			r.mu.Unlock()
			delete(sums, ni)
			delete(subs, ni)
		}
		healed := len(writeSet) - len(failed)
		j.obj.setSums(j.stripe, len(s.nodes), sums)
		j.obj.setSubSums(j.stripe, len(s.nodes), subs)
		j.obj.clearSegSums(lostSegs)
		s.lastCkpt.Store(time.Now().UnixNano())
		s.metrics.repairCheckpoints.Inc()
		s.metrics.shardsHealed.Add(int64(healed))
		s.metrics.repairReadBytes.Add(readBytes)
		if j.tier == 0 {
			s.metrics.repairBytesImportant.Add(writeBytes)
		} else {
			s.metrics.repairBytesBestEffort.Add(writeBytes)
		}
		r.mu.Lock()
		rep.StripesRepaired++
		rep.ShardsHealed += healed
		rep.BytesRebuilt += rr.BytesRebuilt
		rep.BytesRead += readBytes
		r.bytes += writeBytes
		r.readBytes += readBytes
		if len(lostSegs) > 0 {
			rep.LostSegments[j.obj.name] = mergeSorted(rep.LostSegments[j.obj.name], lostSegs)
		}
		r.doneSet.checkpoint(j.obj.name, j.stripe, lostSegs)
		r.mu.Unlock()
	}()
}

// rateLimiter is a token bucket over bytes with a one-second burst. It
// admits a request immediately once the bucket can go non-negative,
// then lets the debt refill — simple, and accurate at steady state.
type rateLimiter struct {
	mu    sync.Mutex
	rate  float64 // bytes per second; <= 0 disables
	avail float64
	last  time.Time
}

func newRateLimiter(bps int64) *rateLimiter {
	if bps <= 0 {
		return nil
	}
	return &rateLimiter{rate: float64(bps), avail: float64(bps), last: time.Now()}
}

// take blocks until n bytes of budget are available. A nil limiter is
// unlimited.
func (l *rateLimiter) take(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	l.avail += now.Sub(l.last).Seconds() * l.rate
	if l.avail > l.rate {
		l.avail = l.rate // burst cap: one second of budget
	}
	l.last = now
	l.avail -= float64(n)
	var wait time.Duration
	if l.avail < 0 {
		wait = time.Duration(-l.avail / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}
