package store

import (
	"fmt"
	"sort"

	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/tier"
)

// UpdateSegment overwrites a stored segment's bytes in place (same
// length) using the framework's incremental parity update — the
// single-write path of the paper's Table 2. Affected columns are
// updated copy-on-write and swapped in atomically per node, so
// concurrent readers always observe a consistent stripe (either the old
// or the new version).
//
// Updates require a fully healthy stripe set; repair first if nodes are
// failed.
//
// On a durable store the update (name, segment, new bytes) is journaled
// and synced before the first column write, so an acknowledged update
// survives a crash mid-swap: recovery replays it and re-derives the
// same incremental parity update.
func (s *Store) UpdateSegment(name string, id int, newData []byte) error {
	if err := s.admit.acquire("UpdateSegment"); err != nil {
		return err
	}
	defer s.admit.release()
	defer s.metrics.opUpdate.Start().Stop()
	sp := s.metrics.reg.StartSpan("store.UpdateSegment")
	defer func() { sp.End(obs.A("object", name), obs.A("segment", id)) }()
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	s.crash("update.before-journal")
	if err := s.journalAppend(recUpdate, updateRecord{Name: name, ID: id, Data: newData}); err != nil {
		return err
	}
	s.crash("update.after-journal")
	return s.applyUpdate(name, id, newData)
}

// applyUpdate performs the update (also the journal replay path). A
// replayed update that fails — e.g. against nodes that failed later in
// the journal — reproduces the original call's outcome, including any
// partial stripe writes it had completed.
func (s *Store) applyUpdate(name string, id int, newData []byte) (err error) {
	obj, ok := s.objects.get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// Hold the fail-set read lock across the healthy-stripe check AND
	// the copy-on-write swap: a concurrent FailNodes would otherwise
	// race the pre-check (TOCTOU) and wipe nodes mid-swap, leaving a
	// stripe that mixes pre- and post-update columns.
	s.failMu.RLock()
	defer s.failMu.RUnlock()
	// The update lock spans every column write and checksum publication
	// of this update, so scrub's read-repair (which re-checks under the
	// same lock) can never mistake a half-published update for
	// corruption and heal it backwards.
	obj.updateMu.Lock()
	defer obj.updateMu.Unlock()
	if len(s.FailedNodes()) > 0 {
		return fmt.Errorf("%w: cannot update with failed nodes (repair first)", ErrUnavailable)
	}
	// Bump the data epoch on entry AND exit, so it is odd exactly while
	// bytes and checksums may disagree: lock-free readers blame a
	// mismatch they hit meanwhile on this update instead of the node
	// (see objRead), cached decoded segments keyed by the pre-update
	// epoch stop serving the moment bytes may start moving, and a read
	// racing the update can only insert under an epoch the second bump
	// retires (see segKey).
	obj.version.Add(1)
	defer obj.version.Add(1)
	pos, ok := obj.segPos[id]
	if !ok {
		return fmt.Errorf("%w: segment %d", ErrNotFound, id)
	}
	extents := obj.segExt[pos]
	total := 0
	for _, e := range extents {
		total += e.length
	}
	if len(newData) != total {
		return fmt.Errorf("store: segment %d is %d bytes, got %d (resizing unsupported)",
			id, total, len(newData))
	}
	// The content checksum follows the bytes: the new sum once every
	// stripe has landed, none when the update failed part-way (the
	// segment may then mix old and new sub-blocks, each still verified
	// by its own sub-block sum, and reads go through those).
	defer func() {
		if err != nil {
			obj.setSegSum(pos, segSum{})
		} else {
			obj.setSegSum(pos, segSum{Sum: colSum(newData), OK: true})
		}
	}()
	// Group extents by stripe, preserving stream order within each.
	byStripe := make(map[int][]extent)
	var stripes []int
	for _, e := range extents {
		if _, ok := byStripe[e.stripe]; !ok {
			stripes = append(stripes, e.stripe)
		}
		byStripe[e.stripe] = append(byStripe[e.stripe], e)
	}
	sort.Ints(stripes)
	sub := s.cfg.NodeSize / s.cfg.Code.H

	// The extent list is in placement order; map each extent to its
	// byte range within newData.
	cursor := 0
	offsetOf := make(map[[4]int]int) // (stripe,node,row,off) -> newData offset
	for _, e := range extents {
		offsetOf[[4]int{e.stripe, e.node, e.row, e.off}] = cursor
		cursor += e.length
	}

	for _, st := range stripes {
		// Read through the CRC-verifying path: a column whose bytes fail
		// the stored checksum (torn disk write, wire bit-flip on a
		// networked backend) must never feed code.Update — the poisoned
		// parity deltas would be written back and re-checksummed as
		// truth, making the corruption permanent and undetectable.
		cols, _ := s.readStripe(obj, st, nil)
		var erased []int
		for i, c := range cols {
			if c == nil {
				erased = append(erased, i)
			}
		}
		if len(erased) > 0 {
			// Rebuild demoted/unreadable columns from the survivors so
			// the incremental update runs against true bytes; if the
			// stripe cannot be fully reconstructed the update fails
			// rather than guessing.
			r, err := s.reconstructForHeal(cols, erased)
			if err != nil || len(r.Lost) > 0 {
				return fmt.Errorf("%w: stripe %d columns %v unreadable or corrupt",
					ErrUnavailable, st, erased)
			}
		}
		// Copy-on-write: clone every column the update may mutate (the
		// touched data nodes and every parity node).
		mutated := make(map[int]bool)
		for _, e := range byStripe[st] {
			mutated[e.node] = true
		}
		for i := range cols {
			if s.code.Role(i) != core.RoleData {
				mutated[i] = true
			}
		}
		for i := range cols {
			if mutated[i] {
				cols[i] = append([]byte(nil), cols[i]...)
			}
		}
		// Apply per (node, row) sub-block: patch the changed byte ranges
		// and run the incremental update.
		type key struct{ node, row int }
		patches := make(map[key][]extent)
		var order []key
		for _, e := range byStripe[st] {
			k := key{e.node, e.row}
			if _, ok := patches[k]; !ok {
				order = append(order, k)
			}
			patches[k] = append(patches[k], e)
		}
		for _, k := range order {
			old := cols[k.node][k.row*sub : (k.row+1)*sub]
			blk := append([]byte(nil), old...)
			for _, e := range patches[k] {
				off := offsetOf[[4]int{e.stripe, e.node, e.row, e.off}]
				copy(blk[e.off:e.off+e.length], newData[off:off+e.length])
			}
			if _, err := s.code.Update(cols, k.node, k.row, blk); err != nil {
				return fmt.Errorf("store update: %w", err)
			}
		}
		// Swap the mutated clones in through the I/O stack and publish
		// their new checksums (whole-column and per-sub-block).
		sums := make(map[int]uint32)
		subSums := make(map[int][]uint32)
		// One column at a time, stopping at the first failure: until the
		// checksums below are published every column written is one the
		// readers demote, so a failing update must touch as few as it can.
		w := s.columnWriter(name, true)
		var written []int
		for i := range cols {
			if !mutated[i] {
				continue
			}
			if s.tierDropsColumn(obj, i) {
				// A cold object stores no global parity; the update ran
				// against a reconstructed copy, but persisting it would
				// silently resurrect the redundancy the demotion removed.
				continue
			}
			w.add(i, st, cols[i])
			sums[i], subSums[i] = s.colSums(cols[i])
			written = append(written, i)
		}
		if node, err := firstFailure(w.flush()); err != nil {
			return fmt.Errorf("store update: write node %d: %w", node, err)
		}
		obj.setSums(st, len(s.nodes), sums)
		obj.setSubSums(st, len(s.nodes), subSums)
		// Hot objects keep their data-column replicas fresh in the same
		// critical section. Best-effort: a failed replica write degrades
		// replica reads (which verify by checksum and fall back to the
		// decode path), never correctness.
		if obj.tierLevel() == tier.Hot {
			rw := s.columnWriter(repKey(name), false)
			for _, i := range written {
				if s.code.Role(i) == core.RoleData {
					rw.add(s.repNode(i), st, cols[i])
				}
			}
			_ = rw.flush()
		}
		s.crash("update.mid-write")
	}
	return nil
}
