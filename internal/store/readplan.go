package store

import (
	"errors"
	"fmt"
	"time"

	"approxcode/internal/core"
)

// This file is the store half of minimal-read repair and degraded
// reads. The coder layer (core.PlanRead / PlanSubBlockRead) names the
// smallest column or sub-block set that can serve a read or rebuild a
// loss; the store routes its read paths through those plans with an
// escalation ladder:
//
//	minimal plan → verified planned reads → widen (failed or demoted
//	columns join the erased set, the plan is recomputed, already-read
//	columns are kept) → full-stripe read (the final rung, byte-for-byte
//	the pre-planning behaviour).
//
// Every rung is checksum-verified, so escalation can only trade bytes
// moved for correctness margin — never the reverse. Scrub keeps its
// full-width reads (Verify needs every column) but heals through the
// planned decode. A single-segment read has one more rung in front
// (readSegmentExact): exactly the segment's bytes, verified end to end
// against its content checksum.

// objRead is one lock-free attempt at reading an object's bytes, and
// carries the read-vs-update rule (DESIGN.md §11). Readers take no
// lock, and an UpdateSegment writes its columns before it publishes
// their checksums, so a checksum mismatch — at any grain — may be an
// update caught half-way rather than damage. Every read-side mismatch
// therefore consults the object's epoch first: odd, or changed since
// the attempt began, means an update overlapped it. The attempt is then
// torn: nothing is demoted, its result is discarded, and the caller
// repeats the read once under the object's update lock, where a
// mismatch is genuine. Callers check overlapped once more when the
// attempt ends, so a reply is never assembled from both sides of an
// update even when every piece verified.
//
// A nil *objRead is a caller that excludes updates by other means: the
// update itself, scrub and migration (they hold updateMu), and repair
// (updates are refused while nodes are failed).
type objRead struct {
	obj    *object
	epoch  int64
	locked bool // the caller holds obj.updateMu
	torn   bool
}

// overlapped reports whether an UpdateSegment overlapped the attempt,
// marking it torn if so.
func (r *objRead) overlapped() bool {
	if r == nil || r.locked {
		return false
	}
	if v := r.obj.version.Load(); v != r.epoch || v&1 == 1 {
		r.torn = true
	}
	return r.torn
}

// errNoSubSum marks a sub-block whose checksum is unavailable (object
// loaded from a pre-sub-checksum snapshot); partial reads cannot be
// verified, so the caller drops to the whole-column path.
var errNoSubSum = errors.New("store: sub-block checksum unavailable")

// stripeRead is one stripe's column set as assembled for a Get. On the
// planned path cols holds only the planned columns (others nil) and
// failed lists the erasures the decode works around; on the full path
// cols is readStripe's output and failed is unused.
type stripeRead struct {
	cols    [][]byte
	failed  []int
	planned bool
}

// readStripeForGet assembles the columns a Get needs from one stripe:
// the minimal planned set when planning succeeds, the full stripe
// otherwise. Demoted-column counts land in rep. Once rd is torn the
// result is for the bin, so nothing further is read.
func (s *Store) readStripeForGet(obj *object, stripe int, exts []extent, rep *GetReport, rd *objRead) *stripeRead {
	if sr, demotes, ok := s.readStripePlanned(obj, stripe, exts, rd); ok {
		rep.ChecksumFailures += demotes
		return sr
	}
	if rd.torn {
		return &stripeRead{cols: make([][]byte, len(s.nodes))}
	}
	s.metrics.planFallbacks.Inc()
	cols, demoted := s.readStripe(obj, stripe, rd)
	rep.ChecksumFailures += len(demoted)
	return &stripeRead{cols: cols}
}

// readStripePlanned reads the union of the sub-block read plans of the
// stripe's extents, escalating on failure: a column that cannot be read
// or fails its checksum joins the erased set and the plan is recomputed
// (columns already read are kept). It reports ok=false when any plan
// cannot be built — beyond-tolerance patterns, or escalation running
// out of survivors — and the caller takes the full-stripe rung, or when
// a mismatch tore rd.
func (s *Store) readStripePlanned(obj *object, stripe int, exts []extent, rd *objRead) (sr *stripeRead, demotes int, ok bool) {
	failed := s.FailedNodes()
	cols := make([][]byte, len(s.nodes))
	sums := obj.sumsRow(stripe)
	read := make(map[int]bool)
	for tries := 0; tries <= len(s.nodes); tries++ {
		erased := make(map[int]bool, len(failed))
		for _, f := range failed {
			erased[f] = true
		}
		need := make(map[int]bool)
		for _, e := range exts {
			plan, err := s.code.PlanSubBlockRead(e.node, e.row, failed)
			if err != nil {
				return nil, demotes, false
			}
			for _, sb := range plan {
				need[sb.Node] = true
			}
		}
		widen := false
		for ni := 0; ni < len(s.nodes); ni++ {
			if !need[ni] || read[ni] || erased[ni] {
				continue
			}
			data, err := s.readColumn(ni, obj.name, stripe)
			if err != nil {
				failed = append(failed, ni)
				widen = true
				break
			}
			if len(data) != s.cfg.NodeSize ||
				(sums != nil && ni < len(sums) && sums[ni] != 0 && colSum(data) != sums[ni]) {
				if rd.overlapped() {
					return nil, demotes, false
				}
				s.demoteColumn(ni)
				demotes++
				failed = append(failed, ni)
				widen = true
				break
			}
			s.health.Verified(ni)
			cols[ni] = data
			read[ni] = true
		}
		if widen {
			continue
		}
		s.metrics.readPlanWidth.Observe(time.Duration(len(read)) * time.Microsecond)
		return &stripeRead{cols: cols, failed: failed, planned: true}, demotes, true
	}
	return nil, demotes, false
}

// stripeSubBlock serves one sub-block from an assembled stripe read:
// directly off the column when the node is live, decoded from the
// planned survivors when it is erased. decoded mirrors
// core.ReadSubBlockReport's flag.
func (s *Store) stripeSubBlock(sr *stripeRead, node, row int) (block []byte, decoded bool, err error) {
	if !sr.planned {
		return s.code.ReadSubBlockReport(sr.cols, node, row)
	}
	sub := s.cfg.NodeSize / s.cfg.Code.H
	if !isFailedIdx(sr.failed, node) {
		col := sr.cols[node]
		if col == nil {
			return nil, false, fmt.Errorf("store: planned column %d absent", node)
		}
		return col[row*sub : (row+1)*sub], false, nil
	}
	plan, err := s.code.PlanSubBlockRead(node, row, sr.failed)
	if err != nil {
		return nil, false, err
	}
	subs := make(map[core.SubBlock][]byte, len(plan))
	for _, sb := range plan {
		col := sr.cols[sb.Node]
		if col == nil {
			return nil, false, fmt.Errorf("store: planned column %d absent", sb.Node)
		}
		subs[sb] = col[sb.Row*sub : (sb.Row+1)*sub]
	}
	block, err = s.code.ReconstructSubBlock(subs, node, row, sr.failed)
	if err != nil {
		return nil, false, err
	}
	return block, true, nil
}

// readSegmentExact is rung 0 of the single-segment ladder: when the
// segment has a content checksum and every extent sits on a node that
// is neither failed nor health-failed (asked of those nodes only, and
// before anything moves, so an erased extent costs rung 1 no extra
// traffic), read exactly the extents' byte ranges and verify the
// assembled segment end to end. A single-extent segment (the normal
// case: a segment only splits when it spills into the next stripe) is
// the read buffer itself, so each byte served is copied once. ok=false
// — no sum, an erased extent, a read error, a mismatch — hands the
// segment to the sub-block rung, which can tell which node is at
// fault; a mismatch an update explains tears rd instead.
func (s *Store) readSegmentExact(obj *object, pos int, rd *objRead) (data []byte, ok bool) {
	want, ok := obj.segSum(pos)
	if !ok {
		return nil, false
	}
	exts := obj.segExt[pos]
	total := 0
	for _, e := range exts {
		if s.nodeFailed(e.node) || !s.health.Allow(e.node) {
			return nil, false
		}
		total += e.length
	}
	if len(exts) > 1 {
		data = make([]byte, 0, total)
	}
	sub := s.cfg.NodeSize / s.cfg.Code.H
	for _, e := range exts {
		b, err := s.readColumnAt(e.node, obj.name, e.stripe, e.row*sub+e.off, e.length)
		if err != nil || len(b) != e.length {
			return nil, false
		}
		if len(exts) == 1 {
			data = b
		} else {
			data = append(data, b...)
		}
	}
	if colSum(data) != want {
		rd.overlapped()
		return nil, false
	}
	for _, e := range exts {
		s.health.Verified(e.node)
	}
	return data, true
}

// getSegmentFast serves a single segment without reading the object
// around it. Rung 0 moves exactly the segment's bytes (see
// readSegmentExact). Behind it — for erased extents, objects without
// segment sums and verification failures — the sub-block rung moves the
// sub-block ranges the segment's read plan names, as partial-column
// reads verified against the per-sub-block checksums, and decodes erased
// targets from their codeword's minimal survivor set. ok=false means
// neither applies (no sub-checksums, plan failure, escalation
// exhausted, or rd torn) and the caller falls back to the whole-object
// path or repeats the attempt.
func (s *Store) getSegmentFast(obj *object, pos int, rd *objRead) (data []byte, ok bool) {
	if rd.overlapped() {
		return nil, false
	}
	if data, ok := s.readSegmentExact(obj, pos, rd); ok || rd.torn {
		return data, ok
	}
	exts := obj.segExt[pos]
	total := 0
	for _, e := range exts {
		total += e.length
	}
	sub := s.cfg.NodeSize / s.cfg.Code.H
	erased := s.FailedNodes()
	blocks := make(map[[3]int][]byte) // (stripe, node, row) -> verified sub-block

	// fetch moves one sub-block via a partial read and verifies it
	// against its published sub-checksum. errNoSubSum aborts the fast
	// path (nothing to verify against); any other failure tries a hot
	// object's replica column before escalating. A sub-block CRC
	// mismatch demotes the node exactly like the whole-column path
	// (accounting + health corruption streak) unless an update explains
	// it (rd is torn then, and the attempt is abandoned rather than
	// widened); a verified read clears the node's streak.
	fetch := func(stripe int, sb core.SubBlock) ([]byte, error) {
		k := [3]int{stripe, sb.Node, sb.Row}
		if b, ok := blocks[k]; ok {
			return b, nil
		}
		ss := obj.subSumsRow(stripe)
		if sb.Node >= len(ss) || sb.Row >= len(ss[sb.Node]) {
			return nil, errNoSubSum
		}
		want := ss[sb.Node][sb.Row]
		b, rerr := s.readColumnAt(sb.Node, obj.name, stripe, sb.Row*sub, sub)
		if rerr == nil && len(b) != sub {
			rerr = fmt.Errorf("store: partial read returned %d of %d bytes", len(b), sub)
		}
		if rerr == nil {
			if want != 0 && colSum(b) != want {
				rerr = fmt.Errorf("store: sub-block (%d,%d) checksum mismatch", sb.Node, sb.Row)
				if rd.overlapped() {
					return nil, rerr
				}
				s.demoteColumn(sb.Node)
			} else {
				s.health.Verified(sb.Node)
			}
		}
		if rerr != nil {
			if rb, ok := s.replicaSubBlock(obj, stripe, sb, sub, want); ok {
				blocks[k] = rb
				return rb, nil
			}
			return nil, rerr
		}
		blocks[k] = b
		return b, nil
	}

	data = make([]byte, 0, total)
	for _, e := range exts {
		var block []byte
		solved := false
		for tries := 0; tries <= len(s.nodes) && !solved; tries++ {
			plan, perr := s.code.PlanSubBlockRead(e.node, e.row, erased)
			if perr != nil {
				return nil, false
			}
			subs := make(map[core.SubBlock][]byte, len(plan))
			bad := -1
			for _, sb := range plan {
				b, ferr := fetch(e.stripe, sb)
				if errors.Is(ferr, errNoSubSum) || rd.torn {
					return nil, false
				}
				if ferr != nil {
					bad = sb.Node
					break
				}
				subs[sb] = b
			}
			if bad >= 0 {
				// Widen: the bad column joins the erased set; verified
				// sub-blocks already fetched are kept.
				if !isFailedIdx(erased, bad) {
					erased = append(erased, bad)
				}
				continue
			}
			if !isFailedIdx(erased, e.node) {
				block = subs[core.SubBlock{Node: e.node, Row: e.row}]
			} else {
				var derr error
				block, derr = s.code.ReconstructSubBlock(subs, e.node, e.row, erased)
				if derr != nil {
					return nil, false
				}
				s.metrics.degradedSubReads.Inc()
			}
			solved = true
		}
		if !solved {
			return nil, false
		}
		data = append(data, block[e.off:e.off+e.length]...)
	}
	return data, true
}

// reconstructForHeal rebuilds a stripe's demoted columns for scrub's
// read-repair. The columns are already read (scrub verifies full
// width), so planning saves decode work, not traffic: the planned
// decode touches only the codewords covering the demotes. When the
// plan cannot apply — e.g. crashed columns among the survivors — it
// falls back to the full best-effort reconstruction.
func (s *Store) reconstructForHeal(cols [][]byte, demoted []int) (*core.Report, error) {
	if len(demoted) > 0 {
		if r, err := s.code.ReconstructErasedReport(cols, demoted); err == nil {
			return r, nil
		}
		// A failed planned decode may have allocated (zeroed) target
		// entries; restore them to erasures so the fallback cannot
		// mistake them for surviving columns.
		for _, ni := range demoted {
			cols[ni] = nil
		}
		s.metrics.planFallbacks.Inc()
	}
	return s.code.ReconstructReport(cols, core.Options{})
}

// plannedRepairRead is repairStripe's minimal-read rung: plan the
// survivor set for the failed nodes, read and verify exactly those
// columns (demoted or unreadable columns widen the erased set and the
// plan is recomputed), and rebuild the erased columns in place. It
// reports the physical bytes read; rr == nil means the ladder ran out
// and the caller takes the full-stripe rung.
func (r *Repair) plannedRepairRead(j repairJob) (cols [][]byte, demoted []int, rr *core.Report, readBytes int64) {
	s := r.s
	targets := append([]int(nil), r.failedSet...)
	cols = make([][]byte, len(s.nodes))
	sums := j.obj.sumsRow(j.stripe)
	read := make(map[int]bool)
	for tries := 0; tries <= len(s.nodes); tries++ {
		plan, err := s.code.PlanRead(targets)
		if err != nil {
			return nil, demoted, nil, readBytes
		}
		widen := false
		for _, ni := range plan {
			if read[ni] {
				continue
			}
			data, rerr := s.readColumn(ni, j.obj.name, j.stripe)
			if rerr == nil {
				readBytes += int64(len(data))
				r.accountRead(ni, int64(len(data)))
			}
			if rerr != nil {
				targets = append(targets, ni)
				widen = true
				break
			}
			if len(data) != s.cfg.NodeSize ||
				(sums != nil && ni < len(sums) && sums[ni] != 0 && colSum(data) != sums[ni]) {
				s.demoteColumn(ni)
				demoted = append(demoted, ni)
				targets = append(targets, ni)
				widen = true
				break
			}
			s.health.Verified(ni)
			cols[ni] = data
			read[ni] = true
		}
		if widen {
			continue
		}
		rr, err = s.code.ReconstructErasedReport(cols, targets)
		if err != nil {
			return nil, demoted, nil, readBytes
		}
		s.metrics.repairPlanWidth.Observe(time.Duration(len(read)) * time.Microsecond)
		return cols, demoted, rr, readBytes
	}
	return nil, demoted, nil, readBytes
}
