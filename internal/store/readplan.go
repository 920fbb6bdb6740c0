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
// planned decode.

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
// otherwise. Demoted-column counts land in rep.
func (s *Store) readStripeForGet(obj *object, stripe int, exts []extent, rep *GetReport) *stripeRead {
	if sr, demotes, ok := s.readStripePlanned(obj, stripe, exts); ok {
		rep.ChecksumFailures += demotes
		return sr
	}
	s.metrics.planFallbacks.Inc()
	cols, demoted := s.readStripe(obj, stripe)
	rep.ChecksumFailures += len(demoted)
	return &stripeRead{cols: cols}
}

// readStripePlanned reads the union of the sub-block read plans of the
// stripe's extents, escalating on failure: a column that cannot be read
// or fails its checksum joins the erased set and the plan is recomputed
// (columns already read are kept). It reports ok=false when any plan
// cannot be built — beyond-tolerance patterns, or escalation running
// out of survivors — and the caller takes the full-stripe rung.
func (s *Store) readStripePlanned(obj *object, stripe int, exts []extent) (sr *stripeRead, demotes int, ok bool) {
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

// getSegmentFast serves a single segment by moving only the sub-block
// ranges its read plan names — partial-column reads verified against
// the per-sub-block checksums — decoding erased targets from their
// codeword's minimal survivor set. done=false means the fast path does
// not apply (no sub-checksums, plan failure, or escalation exhausted)
// and the caller must fall back to the whole-object path.
func (s *Store) getSegmentFast(name string, id int) (seg Segment, done bool, err error) {
	obj, ok := s.objects.get(name)
	if !ok {
		return Segment{}, true, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	important := false
	found := false
	for _, m := range obj.segments {
		if m.ID == id {
			important, found = m.Important, true
			break
		}
	}
	if !found {
		return Segment{}, true, fmt.Errorf("%w: segment %d", ErrNotFound, id)
	}
	var exts []extent
	total := 0
	for _, e := range obj.extents {
		if e.seg == id {
			exts = append(exts, e)
			total += e.length
		}
	}
	sub := s.cfg.NodeSize / s.cfg.Code.H
	erased := s.FailedNodes()
	blocks := make(map[[3]int][]byte) // (stripe, node, row) -> verified sub-block

	// fetch moves one sub-block via a partial read and verifies it
	// against its published sub-checksum. errNoSubSum aborts the fast
	// path (nothing to verify against); any other failure tries a hot
	// object's replica column before escalating. A sub-block CRC
	// mismatch demotes the node exactly like the whole-column path
	// (accounting + health corruption streak); a verified read clears
	// the node's streak.
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
				s.demoteColumn(sb.Node)
				rerr = fmt.Errorf("store: sub-block (%d,%d) checksum mismatch", sb.Node, sb.Row)
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

	data := make([]byte, 0, total)
	for _, e := range exts {
		var block []byte
		solved := false
		for tries := 0; tries <= len(s.nodes) && !solved; tries++ {
			plan, perr := s.code.PlanSubBlockRead(e.node, e.row, erased)
			if perr != nil {
				return Segment{}, false, nil
			}
			subs := make(map[core.SubBlock][]byte, len(plan))
			bad := -1
			for _, sb := range plan {
				b, ferr := fetch(e.stripe, sb)
				if errors.Is(ferr, errNoSubSum) {
					return Segment{}, false, nil
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
					return Segment{}, false, nil
				}
				s.metrics.degradedSubReads.Inc()
			}
			solved = true
		}
		if !solved {
			return Segment{}, false, nil
		}
		data = append(data, block[e.off:e.off+e.length]...)
	}
	return Segment{ID: id, Important: important, Data: data}, true, nil
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
