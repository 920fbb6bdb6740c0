package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/place"
	"approxcode/internal/tier"
)

// Persistence is generation-numbered and atomic: every Save writes a
// complete new generation (one manifest plus one file per node, each
// in a checksummed envelope, each written to a temp file and renamed)
// and then atomically flips the CURRENT pointer to it. A crash at any
// point of a Save leaves CURRENT on the previous complete generation;
// combined with the write-ahead journal (journal.go) no acknowledged
// mutation is ever lost: Recover loads the newest complete generation
// and replays the journal suffix on top of it.
type snapshot struct {
	Params              core.Params
	NodeSize            int
	EncodeWorkers       int
	RepairWorkers       int
	ContiguousPlacement bool
	Objects             []snapObject
	FailedNodes         []int
	// Topology is the explicit failure-domain topology the store was
	// opened with, nil when the store ran on the implicit flat layout.
	// Pre-topology snapshots leave it nil too (gob skips absent
	// fields), so legacy directories load exactly as before: a flat
	// single-rack topology whose survival exposure Scrub reports but
	// nothing enforces.
	Topology *place.Topology
	// Generation is this snapshot's generation number.
	Generation uint64
	// LastSeq is the journal sequence this snapshot covers: replay
	// skips records at or below it.
	LastSeq uint64
}

type snapObject struct {
	Name     string
	Segments []Segment // metadata only
	Extents  []extentRecord
	Stripes  int
	// Sums[stripe][node] are the CRC-32C column checksums. Living in
	// the manifest — not on the nodes — they survive node corruption.
	Sums [][]uint32
	// SubSums[stripe][node][row] are the per-sub-block CRC-32C
	// checksums behind partial-column reads. Absent in pre-sub-checksum
	// snapshots (gob leaves the field nil); partial reads then fall
	// back to whole-column verification.
	SubSums [][][]uint32
	// Tier is the object's redundancy tier (a tier.Level). Pre-tier
	// snapshots leave it zero, which is Warm — exactly the layout every
	// object had before tiers existed.
	Tier int
	// SegSums[i] is the content checksum of Segments[i] (see
	// object.segSums). Absent in snapshots written before segment sums
	// (gob leaves the field nil): every segment then has no sum and is
	// read through the sub-block sums.
	SegSums []segSum
}

// extentRecord mirrors extent with exported fields for gob.
type extentRecord struct {
	Seg, Stripe, Node, Row, Off, Length int
}

type nodeSnapshot struct {
	// Columns[object][stripe]
	Columns map[string][][]byte
}

const (
	// currentFile atomically names the live generation. Its rename is
	// the commit point of a Save.
	currentFile = "CURRENT"
	// legacyManifestFile is the pre-generation layout, still readable.
	legacyManifestFile = "store.manifest"
)

// persistMagic heads every persisted file; the version suffix guards
// against reading pre-checksum snapshots as garbage.
var persistMagic = []byte("APPRSTO2")

func manifestFileAt(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("manifest.%08d", gen))
}

func nodeFileAt(dir string, i int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("node%03d.%08d.gob", i, gen))
}

// nodeFile is the legacy (pre-generation) node file name.
func nodeFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("node%03d.gob", i))
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, so path is always either absent, the old
// content, or the complete new content — never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmpName) // best-effort temp cleanup; werr is the real failure
		return werr
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return nil
}

// checksummedWrite writes path as magic | crc32c(payload) | len(payload)
// | payload — atomically, via temp + rename — so checksummedRead can
// reject truncated or corrupted files and a crash mid-write can never
// leave a half-written envelope under the final name.
func checksummedWrite(path string, payload []byte) error {
	var hdr [16]byte
	copy(hdr[:8], persistMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], colSum(payload))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(payload)))
	buf := make([]byte, 0, len(hdr)+len(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return writeFileAtomic(path, buf)
}

// checksummedRead reads a file written by checksummedWrite, returning an
// error wrapping ErrCorrupted when the envelope or checksum does not
// match.
func checksummedRead(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16 || !bytes.Equal(raw[:8], persistMagic) {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupted, filepath.Base(path))
	}
	want := binary.LittleEndian.Uint32(raw[8:12])
	length := binary.LittleEndian.Uint32(raw[12:16])
	payload := raw[16:]
	if uint32(len(payload)) != length {
		return nil, fmt.Errorf("%w: %s: truncated (%d of %d payload bytes)",
			ErrCorrupted, filepath.Base(path), len(payload), length)
	}
	if colSum(payload) != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupted, filepath.Base(path))
	}
	return payload, nil
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// scanGenerations lists the generation numbers with a manifest file in
// dir, ascending.
func scanGenerations(dir string) []uint64 {
	matches, err := filepath.Glob(filepath.Join(dir, "manifest.*"))
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, m := range matches {
		suffix := strings.TrimPrefix(filepath.Base(m), "manifest.")
		if g, err := strconv.ParseUint(suffix, 10, 64); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// currentGeneration resolves the live generation of dir: the CURRENT
// pointer when valid, else the highest on-disk manifest (a crash can
// strand a valid CURRENT alongside newer incomplete generations, never
// the other way around — the pointer flips only after the generation
// is complete). Returns ok=false when dir uses the legacy layout or is
// empty.
func currentGeneration(dir string) (gen uint64, ok bool) {
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err == nil {
		if g, perr := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64); perr == nil {
			if _, serr := os.Stat(manifestFileAt(dir, g)); serr == nil {
				return g, true
			}
		}
	}
	// Damaged or missing pointer: fall back to the newest generation
	// whose manifest envelope verifies.
	gens := scanGenerations(dir)
	for i := len(gens) - 1; i >= 0; i-- {
		if _, rerr := checksummedRead(manifestFileAt(dir, gens[i])); rerr == nil {
			return gens[i], true
		}
	}
	return 0, false
}

// Save persists the store into dir as a fresh generation: node files
// first, then the manifest, then the atomic CURRENT flip (the commit
// point), then best-effort cleanup of superseded generations and the
// journal suffix the new snapshot covers. A crash anywhere before the
// flip leaves the previous generation live and the journal intact, so
// nothing acknowledged is lost.
func (s *Store) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	// Quiesce mutations: the snapshot must agree exactly with LastSeq,
	// or replay after recovery would skip (or double-apply) the
	// operations racing the save.
	s.quiesce.Lock()
	defer s.quiesce.Unlock()

	gen := uint64(1)
	if g, ok := currentGeneration(dir); ok {
		gen = g + 1
	} else if _, err := os.Stat(filepath.Join(dir, legacyManifestFile)); err == nil {
		gen = 1 // upgrading a legacy dir
	}
	snap := snapshot{
		Params:              s.cfg.Code,
		NodeSize:            s.cfg.NodeSize,
		EncodeWorkers:       s.cfg.EncodeWorkers,
		RepairWorkers:       s.cfg.RepairWorkers,
		ContiguousPlacement: s.cfg.ContiguousPlacement,
		Generation:          gen,
		LastSeq:             s.lastSeq(),
	}
	if s.topoExplicit {
		snap.Topology = s.topo
	}
	for _, obj := range s.objects.snapshot() {
		obj.sumsMu.RLock()
		so := snapObject{Name: obj.name, Segments: obj.segments, Stripes: obj.stripes,
			Sums: obj.sums, SubSums: obj.subSums, Tier: int(obj.tier.Load()),
			SegSums: append([]segSum(nil), obj.segSums...)}
		obj.sumsMu.RUnlock()
		for _, e := range obj.extents {
			so.Extents = append(so.Extents, extentRecord{
				Seg: e.seg, Stripe: e.stripe, Node: e.node, Row: e.row, Off: e.off, Length: e.length,
			})
		}
		snap.Objects = append(snap.Objects, so)
	}
	snap.FailedNodes = s.FailedNodes()

	for i, nd := range s.nodes {
		nd.mu.RLock()
		payload, err := encodeGob(&nodeSnapshot{Columns: nd.columns})
		nd.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("store save: node %d: %w", i, err)
		}
		if err := checksummedWrite(nodeFileAt(dir, i, gen), payload); err != nil {
			return fmt.Errorf("store save: node %d: %w", i, err)
		}
	}
	s.crash("save.nodes-written")
	payload, err := encodeGob(&snap)
	if err != nil {
		return fmt.Errorf("store save: manifest: %w", err)
	}
	if err := checksummedWrite(manifestFileAt(dir, gen), payload); err != nil {
		return fmt.Errorf("store save: manifest: %w", err)
	}
	s.crash("save.manifest-written")
	// The commit point: flip CURRENT to the complete new generation.
	if err := writeFileAtomic(filepath.Join(dir, currentFile), []byte(strconv.FormatUint(gen, 10)+"\n")); err != nil {
		return fmt.Errorf("store save: current: %w", err)
	}
	s.crash("save.current-flipped")
	s.cleanupGenerations(dir, gen)
	// The snapshot covers every journal record at or below LastSeq;
	// trim them (pure space optimization — replay filters by LastSeq
	// regardless, so a crash before this point changes nothing).
	if dir == s.dir {
		if s.jn != nil {
			if err := s.jn.rotate(snap.LastSeq); err != nil {
				return fmt.Errorf("store save: %w", err)
			}
		}
		s.gen = gen
	} else {
		// A full snapshot into a foreign directory supersedes whatever
		// journal lived there; leaving it would replay another store's
		// operations over this snapshot.
		if err := removeJournal(filepath.Join(dir, journalFile)); err != nil {
			return fmt.Errorf("store save: %w", err)
		}
	}
	return nil
}

// cleanupGenerations best-effort deletes superseded generation files
// and the legacy layout after gen committed.
func (s *Store) cleanupGenerations(dir string, gen uint64) {
	for _, g := range scanGenerations(dir) {
		if g >= gen {
			continue
		}
		_ = os.Remove(manifestFileAt(dir, g))
		for i := range s.nodes {
			_ = os.Remove(nodeFileAt(dir, i, g))
		}
	}
	_ = os.Remove(filepath.Join(dir, legacyManifestFile))
	for i := range s.nodes {
		_ = os.Remove(nodeFile(dir, i))
	}
}

// LoadOptions tunes Load behaviour and threads the self-healing I/O
// configuration into the restored store.
type LoadOptions struct {
	// Lenient downgrades corrupted node files to failed nodes (repair
	// rebuilds them) instead of failing the load. Manifest corruption
	// is always fatal — without it nothing can be interpreted.
	Lenient bool
	// Retry / Health / WrapIO / Obs / Crasher / CacheBytes / Tracker
	// are applied to the restored store's Config verbatim.
	Retry      RetryPolicy
	Health     HealthPolicy
	WrapIO     func(chaos.NodeIO) chaos.NodeIO
	Obs        *obs.Registry
	Crasher    *chaos.Crasher
	CacheBytes int64
	Tracker    *tier.Tracker
}

// RecoverReport describes what recovery found and did.
type RecoverReport struct {
	// Generation is the snapshot generation recovery started from.
	Generation uint64
	// ReplayedOps counts journal records applied on top of the
	// snapshot (puts, updates, node failures, repair commits).
	ReplayedOps int
	// SkippedOps counts journal records that could not be applied
	// (e.g. an object that already existed); these indicate replay of
	// an already-visible effect, not data loss.
	SkippedOps int
	// DiscardedTailBytes is the length of the torn/corrupt journal
	// tail dropped during replay — the unacknowledged suffix of a
	// crashed append.
	DiscardedTailBytes int64
	// DemotedNodes lists nodes whose snapshot files were damaged and
	// demoted to failures by a lenient load.
	DemotedNodes []int
	// RepairPending reports an interrupted repair run found in the
	// journal; StartRepair with Resume picks it up where it left off.
	RepairPending bool
	// RepairCheckpointedStripes counts stripes the interrupted repair
	// had committed; their rebuilt columns were replayed and a resumed
	// repair skips them.
	RepairCheckpointedStripes int
}

// Load restores a store saved with Save. Node files that are missing are
// treated as failed nodes (crash-equivalent); files that are present but
// truncated or corrupted fail the load with an error wrapping
// ErrCorrupted (use LoadWith's Lenient mode to demote them to failed
// nodes instead). If the directory carries a write-ahead journal, its
// valid suffix is replayed so acknowledged mutations after the last
// Save are visible.
func Load(dir string) (*Store, error) {
	return LoadWith(dir, LoadOptions{})
}

// LoadWith is Load with explicit options.
func LoadWith(dir string, opts LoadOptions) (*Store, error) {
	s, _, err := loadAndReplay(dir, opts)
	return s, err
}

// Recover is the crash-recovery entry point: it loads the newest
// complete snapshot generation, replays the journal suffix (discarding
// any torn tail), reattaches the journal for future mutations, and
// reports what it found. The recovered store continues journaling into
// dir, so the Open → mutate → crash → Recover cycle composes.
func Recover(dir string, opts LoadOptions) (*Store, *RecoverReport, error) {
	s, rep, err := loadAndReplay(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := s.attachJournal(dir); err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// OpenDurable opens (or recovers) a journaled store rooted at dir: an
// empty directory gets a fresh store with an initial snapshot
// generation and journal; a directory with prior state is recovered
// exactly as Recover does, with cfg's Retry/Health/WrapIO/Obs/Crasher
// applied. Every mutating operation on the returned store is journaled
// before it is applied, so it survives a crash at any point.
func OpenDurable(dir string, cfg Config) (*Store, *RecoverReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store open durable: %w", err)
	}
	_, hasGen := currentGeneration(dir)
	_, legacyErr := os.Stat(filepath.Join(dir, legacyManifestFile))
	if hasGen || legacyErr == nil {
		return Recover(dir, LoadOptions{
			Lenient:    true,
			Retry:      cfg.Retry,
			Health:     cfg.Health,
			WrapIO:     cfg.WrapIO,
			Obs:        cfg.Obs,
			Crasher:    cfg.Crasher,
			CacheBytes: cfg.CacheBytes,
			Tracker:    cfg.Tracker,
		})
	}
	s, err := Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	s.dir = dir
	// Seed generation 1 so a crash before the first explicit Save
	// still leaves a recoverable directory (the journal alone cannot
	// rebuild the store: it does not carry the code parameters).
	if err := s.Save(dir); err != nil {
		return nil, nil, err
	}
	if err := s.attachJournal(dir); err != nil {
		return nil, nil, err
	}
	return s, &RecoverReport{Generation: s.gen}, nil
}

// attachJournal opens (truncating any torn tail) or creates the
// journal in dir and routes future mutations through it.
func (s *Store) attachJournal(dir string) error {
	_, validLen, _, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		if !errors.Is(err, ErrCorrupted) {
			// Unreadable or in another format version: it may hold
			// acknowledged operations, so it is not ours to replace.
			return fmt.Errorf("store journal: %w", err)
		}
		// A journal with a damaged header was already consumed (or
		// rejected) by loadAndReplay; recreate it fresh here.
		validLen = 0
	}
	jn, err := openJournal(filepath.Join(dir, journalFile), validLen, s.lastSeq(), s.crasher)
	if err != nil {
		return err
	}
	jn.perOp = s.cfg.NoGroupCommit
	jn.batches = s.metrics.journalBatches
	jn.records = s.metrics.journalRecords
	jn.batchBytes = s.metrics.journalBatchBytes
	s.dir = dir
	s.jn = jn
	return nil
}

// loadAndReplay loads the live snapshot generation of dir and replays
// the journal suffix over it.
func loadAndReplay(dir string, opts LoadOptions) (*Store, *RecoverReport, error) {
	rep := &RecoverReport{}
	gen, hasGen := currentGeneration(dir)
	manifestPath := filepath.Join(dir, legacyManifestFile)
	if hasGen {
		manifestPath = manifestFileAt(dir, gen)
		rep.Generation = gen
	}
	payload, err := checksummedRead(manifestPath)
	if err != nil {
		return nil, nil, fmt.Errorf("store load: manifest: %w", err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("store load: manifest: %w: %v", ErrCorrupted, err)
	}
	s, err := Open(Config{
		Code:                snap.Params,
		NodeSize:            snap.NodeSize,
		EncodeWorkers:       snap.EncodeWorkers,
		RepairWorkers:       snap.RepairWorkers,
		ContiguousPlacement: snap.ContiguousPlacement,
		Retry:               opts.Retry,
		Health:              opts.Health,
		WrapIO:              opts.WrapIO,
		Obs:                 opts.Obs,
		Crasher:             opts.Crasher,
		CacheBytes:          opts.CacheBytes,
		Tracker:             opts.Tracker,
		Topology:            snap.Topology,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("store load: %w", err)
	}
	s.gen = snap.Generation
	s.seq = snap.LastSeq
	for _, so := range snap.Objects {
		extents := make([]extent, len(so.Extents))
		for i, e := range so.Extents {
			extents[i] = extent{
				seg: e.Seg, stripe: e.Stripe, node: e.Node, row: e.Row, off: e.Off, length: e.Length,
			}
		}
		obj := newObject(so.Name, so.Segments, extents, so.Stripes)
		obj.sums, obj.subSums = so.Sums, so.SubSums
		if len(so.SegSums) == len(so.Segments) {
			obj.segSums = so.SegSums
		}
		obj.tier.Store(int32(so.Tier))
		s.objects.publish(so.Name, obj)
	}
	var failed []int
	failedSet := make(map[int]bool)
	for _, f := range snap.FailedNodes {
		failedSet[f] = true
	}
	nodePath := func(i int) string {
		if hasGen {
			return nodeFileAt(dir, i, gen)
		}
		return nodeFile(dir, i)
	}
	for i := range s.nodes {
		if failedSet[i] {
			failed = append(failed, i)
			continue
		}
		payload, err := checksummedRead(nodePath(i))
		if err != nil {
			if os.IsNotExist(err) {
				failed = append(failed, i)
				continue
			}
			// The file is present but damaged: strict loads refuse to
			// proceed so the caller learns the store needs repair;
			// lenient loads treat the node as crashed and rebuild it.
			if !opts.Lenient {
				return nil, nil, fmt.Errorf("store load: node %d: %w", i, err)
			}
			failed = append(failed, i)
			rep.DemotedNodes = append(rep.DemotedNodes, i)
			continue
		}
		var ns nodeSnapshot
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ns); err != nil {
			if !opts.Lenient {
				return nil, nil, fmt.Errorf("store load: node %d: %w: %v", i, ErrCorrupted, err)
			}
			failed = append(failed, i)
			rep.DemotedNodes = append(rep.DemotedNodes, i)
			continue
		}
		if ns.Columns != nil {
			s.nodes[i].columns = ns.Columns
		}
	}
	if len(failed) > 0 {
		s.applyFailNodes(failed)
	}
	if err := s.replayJournal(dir, rep, opts); err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// replayJournal applies the journal suffix (records with seq >
// snapshot LastSeq) to the freshly loaded store.
func (s *Store) replayJournal(dir string, rep *RecoverReport, opts LoadOptions) error {
	recs, _, torn, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		// A journal whose header is damaged cannot be trusted at all.
		// Strict loads surface it; lenient loads proceed from the
		// snapshot alone (every acknowledged-but-unsnapshotted write is
		// reported discarded rather than silently dropped). A journal
		// that is intact but in a format this build cannot read
		// (ErrJournalVersion), or that could not be read at all, is
		// refused either way: lenient means tolerating damage, not
		// discarding data.
		if !opts.Lenient || !errors.Is(err, ErrCorrupted) {
			return fmt.Errorf("store load: journal: %w", err)
		}
		if fi, serr := os.Stat(filepath.Join(dir, journalFile)); serr == nil {
			rep.DiscardedTailBytes += fi.Size()
		}
		return nil
	}
	rep.DiscardedTailBytes += torn
	s.replaying = true
	defer func() { s.replaying = false }()
	var pending *pendingRepair
	migrating := make(map[string]migrateRecord)
	for _, r := range recs {
		if r.Seq <= s.seq {
			continue // already covered by the snapshot
		}
		applied, err := s.applyRecord(r, &pending, migrating)
		if err != nil {
			return fmt.Errorf("store load: journal replay seq %d: %w", r.Seq, err)
		}
		if applied {
			rep.ReplayedOps++
		} else {
			rep.SkippedOps++
		}
		s.seq = r.Seq
	}
	// A begin with no commit means the process died mid-build: the
	// migration was never acknowledged, so delete whatever partial
	// target-tier redundancy landed and keep the old tier — the object
	// recovers to entirely the old encoding, never a mix.
	for _, mr := range migrating {
		if obj, ok := s.objects.get(mr.Name); ok {
			s.cleanupTierRedundancy(obj, tier.Level(mr.From), tier.Level(mr.To))
		}
	}
	if pending != nil {
		s.pending = pending
		rep.RepairPending = true
		for _, stripes := range pending.done {
			rep.RepairCheckpointedStripes += len(stripes)
		}
	}
	return nil
}

// applyRecord applies one journal record. It returns false (with nil
// error) for records whose effect is already visible or no longer
// applicable — replay must converge, not abort.
func (s *Store) applyRecord(r journalRecord, pending **pendingRepair, migrating map[string]migrateRecord) (bool, error) {
	switch r.Type {
	case recPut:
		var pr putRecord
		if err := r.decode(&pr); err != nil {
			return false, err
		}
		if _, exists := s.objects.get(pr.Name); exists {
			return false, nil
		}
		if err := s.applyPut(pr.Name, pr.Segments); err != nil {
			return false, err
		}
		return true, nil
	case recUpdate:
		var ur updateRecord
		if err := r.decode(&ur); err != nil {
			return false, err
		}
		// A replayed update can fail exactly where the original did
		// (e.g. against failed nodes); that reproduces the original
		// outcome, so it is a skip rather than an error.
		if err := s.applyUpdate(ur.Name, ur.ID, ur.Data); err != nil {
			return false, nil
		}
		return true, nil
	case recFailNodes:
		var fr failRecord
		if err := r.decode(&fr); err != nil {
			return false, err
		}
		s.applyFailNodes(fr.Nodes)
		return true, nil
	case recRepairStart:
		var rr repairStartRecord
		if err := r.decode(&rr); err != nil {
			return false, err
		}
		// A new start supersedes any earlier unfinished run: its
		// checkpoints no longer describe the live repair. The run's ID
		// is the start record's own sequence number.
		*pending = &pendingRepair{
			id:     r.Seq,
			failed: rr.Failed,
			done:   make(map[string]map[int]bool),
			lost:   make(map[string][]int),
		}
		return true, nil
	case recRepairStripe:
		var sr repairStripeRecord
		if err := r.decode(&sr); err != nil {
			return false, err
		}
		// The rebuilt columns are always correct to land (later journal
		// records overwrite in order); only the resume bookkeeping is
		// scoped to the live run.
		s.applyRepairStripe(sr)
		if *pending != nil && (*pending).id == sr.ID {
			(*pending).checkpoint(sr.Object, sr.Stripe, sr.Lost)
		}
		return true, nil
	case recRepairDone:
		var dr repairDoneRecord
		if err := r.decode(&dr); err != nil {
			return false, err
		}
		if *pending == nil || (*pending).id != dr.ID {
			return false, nil
		}
		for _, ni := range dr.Unfailed {
			s.unfailNode(ni)
		}
		*pending = nil
		return true, nil
	case recMigrateBegin:
		var mr migrateRecord
		if err := r.decode(&mr); err != nil {
			return false, err
		}
		// Intent only: remember it so a missing commit gets cleaned up
		// after the loop. A later begin for the same object supersedes.
		migrating[mr.Name] = mr
		return true, nil
	case recMigrateCommit:
		var mr migrateRecord
		if err := r.decode(&mr); err != nil {
			return false, err
		}
		delete(migrating, mr.Name)
		return s.applyMigrate(mr), nil
	default:
		return false, fmt.Errorf("%w: unknown journal record type %d", ErrCorrupted, r.Type)
	}
}

// applyRepairStripe writes a checkpointed repair commit's columns and
// checksums back onto the (still-failed) replacement nodes.
func (s *Store) applyRepairStripe(sr repairStripeRecord) {
	obj, ok := s.objects.get(sr.Object)
	if !ok {
		return
	}
	sums := make(map[int]uint32, len(sr.Cols))
	subSums := make(map[int][]uint32, len(sr.Cols))
	// memIO ignores the crash flag (repair provisions replacement nodes
	// under the failed index), so replay lands the bytes even though
	// the node stays failed until the done record.
	w := s.columnWriter(sr.Object, false)
	for ni, col := range sr.Cols {
		if ni >= 0 && ni < len(s.nodes) {
			w.add(ni, sr.Stripe, col)
		}
	}
	failed := w.flush()
	for ni, col := range sr.Cols {
		if ni < 0 || ni >= len(s.nodes) || failed[ni] != nil {
			continue
		}
		if sum, ok := sr.Sums[ni]; ok {
			sums[ni] = sum
			_, subSums[ni] = s.colSums(col)
		}
	}
	obj.setSums(sr.Stripe, len(s.nodes), sums)
	obj.setSubSums(sr.Stripe, len(s.nodes), subSums)
	obj.clearSegSums(sr.Lost)
}
