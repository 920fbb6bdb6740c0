package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// The write-ahead journal makes the store crash-consistent: every
// mutating operation (Put, UpdateSegment, FailNodes, repair commits)
// appends a redo record — and syncs it — before the mutation is
// applied, so an operation is acknowledged only once it is durable.
// Recover replays the journal on top of the newest complete snapshot
// generation; a record is self-checking (length + CRC-32C), so a crash
// mid-append leaves a torn tail that replay detects and discards —
// exactly the unacknowledged suffix.
//
// Layout (format v2): the 8-byte magic "APPRJNL2", then records of
//
//	| seq uint64 | type uint8 | len uint32 | crc32c uint32 | payload |
//
// little-endian, with sequence numbers strictly increasing; the CRC
// covers the payload, whose fixed per-type layout is in record.go. The
// snapshot manifest stores the last sequence it covers; replay skips
// records at or below it, which makes journal truncation after Save a
// pure space optimization rather than a correctness step.

var (
	journalMagic = []byte("APPRJNL2")
	// journalMagicV1 headed the gob-payload format this one replaced. It
	// is recognised only to be refused by name (ErrJournalVersion): v1
	// and v2 payloads differ, and no v1 reader is kept.
	journalMagicV1 = []byte("APPRJNL1")
)

const (
	journalFile      = "store.journal"
	journalHdrLen    = 17       // seq(8) + type(1) + len(4) + crc(4)
	maxJournalRecord = 64 << 20 // sanity bound on one record's payload
)

// recType tags a journal record's payload.
type recType uint8

const (
	recPut recType = iota + 1
	recUpdate
	recFailNodes
	recRepairStart
	recRepairStripe
	recRepairDone
	// recMigrateBegin / recMigrateCommit bracket a tier migration. The
	// begin record marks intent (a dangling begin means the process
	// died mid-build: recovery deletes whatever partial target
	// redundancy exists and keeps the old tier); the commit record is
	// the migration's durability point — replay re-derives the target
	// tier's redundancy from the data columns and swaps the tier.
	recMigrateBegin
	recMigrateCommit
)

// journalRecord is one validated record. Payload aliases the file image
// it was parsed from.
type journalRecord struct {
	Seq     uint64
	Type    recType
	Payload []byte
}

// decode unpacks the payload into v (a pointer to the record struct
// matching Type); the decoded byte slices alias Payload.
func (r journalRecord) decode(v recordDecoder) error {
	return decodeRecord(r.Payload, v)
}

// journal is the append handle. Appends group-commit: every appender
// encodes its own record — header room, payload and CRC — into a pooled
// buffer, then queues it; the first one in becomes the batch leader,
// stamps sequence numbers into the queued buffers, writes them to the
// file back to back and pays one fsync for all of them. Followers block
// until the leader's sync covers their record. An append therefore
// still returns only once its record is durable — the
// acknowledged-survives invariant is untouched — but the serialising
// and checksumming run in parallel across clients, outside the
// leader's critical section, and under N concurrent writers the fsync
// cost is amortized over the whole batch instead of paid per record.
// The crash hooks thread the chaos.Crasher's torn-append point through
// the middle of the batch write and a batch-boundary point between the
// write and the sync.
type journal struct {
	path  string
	crash *chaos.Crasher
	// perOp disables coalescing: the leader commits one record per
	// batch, reproducing the pre-group-commit one-fsync-per-op
	// behaviour (the benchmark baseline, Config.NoGroupCommit).
	perOp bool
	// Batch telemetry (nil-safe obs handles; wired by attachJournal).
	batches    *obs.Counter
	records    *obs.Counter
	batchBytes *obs.Counter

	mu     sync.Mutex
	f      *os.File
	seq    uint64 // last durable (synced) sequence
	queue  []*pendingAppend
	leader bool
	// failed latches the first failed batch commit (I/O error or a
	// simulated crash). The bytes that commit left at the file's tail
	// are unknown, and replay stops at the first record it cannot
	// verify, so anything appended behind them could be acknowledged
	// and still lost: appends fail until rotate installs a fresh file.
	failed error
}

// pendingAppend is one encoded record waiting for a batch commit.
type pendingAppend struct {
	rec  []byte // header + payload; the leader fills in the sequence
	seq  uint64
	err  error
	done chan struct{}
}

// finishAll publishes one outcome to every waiter of ps. Only the batch
// leader calls it, once per append.
func finishAll(ps []*pendingAppend, err error) {
	for _, p := range ps {
		p.err = err
		close(p.done)
	}
}

// recBuf is a pooled record buffer. Buffers are recycled per
// power-of-two size class, so a steady stream of Put-sized records
// reuses the same few buffers instead of allocating (and zeroing) a
// megabyte per append.
type recBuf struct{ b []byte }

var recBufPools [bits.UintSize]sync.Pool

func getRecBuf(n int) *recBuf {
	class := bits.Len(uint(n - 1))
	if rb, ok := recBufPools[class].Get().(*recBuf); ok {
		return rb
	}
	return &recBuf{b: make([]byte, 1<<class)}
}

func putRecBuf(rb *recBuf) {
	recBufPools[bits.Len(uint(len(rb.b)-1))].Put(rb)
}

// lastSeq returns the last appended (durable) sequence number.
func (j *journal) lastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// createJournal writes a fresh journal (header only) at path,
// atomically replacing any existing file.
func createJournal(path string, lastSeq uint64, crash *chaos.Crasher) (*journal, error) {
	if err := writeFileAtomic(path, journalMagic); err != nil {
		return nil, fmt.Errorf("store journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store journal: %w", err)
	}
	return &journal{path: path, f: f, seq: lastSeq, crash: crash}, nil
}

// openJournal opens path for appending, truncating it to validLen (the
// checked prefix readJournal accepted) so a torn tail can never be
// misread as data by a later reader. A missing or header-less file is
// recreated fresh.
func openJournal(path string, validLen int64, lastSeq uint64, crash *chaos.Crasher) (*journal, error) {
	if validLen < int64(len(journalMagic)) {
		return createJournal(path, lastSeq, crash)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return createJournal(path, lastSeq, crash)
		}
		return nil, fmt.Errorf("store journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store journal: truncate torn tail: %w", err)
	}
	return &journal{path: path, f: f, seq: lastSeq, crash: crash}, nil
}

// append encodes body as a type-t record, queues it for the next batch
// commit, and returns once the batch holding it has been written and
// synced. The returned sequence number is the operation's durability
// token: once append returns, recovery is guaranteed to replay the
// record.
//
// The payload bytes are copied exactly once, from the caller's memory
// into the record buffer the leader hands to write(2); the CRC (which
// covers the payload, not the sequence number) is computed here, before
// queueing, so neither costs the leader anything.
//
// Concurrency shape: whichever appender finds no leader becomes one and
// drains the queue batch by batch; appenders arriving while a commit is
// in flight pile into the next batch. Sequence numbers are assigned in
// batch order, so the on-disk order is exactly the commit order.
func (j *journal) append(t recType, body recordBody) (uint64, error) {
	n := body.size()
	if n > maxJournalRecord {
		return 0, fmt.Errorf("store journal: record of %d bytes exceeds limit", n)
	}
	rb := getRecBuf(journalHdrLen + n)
	rec := rb.b[:journalHdrLen+n]
	body.marshal(&recWriter{rec[journalHdrLen:]})
	rec[8] = byte(t)
	binary.LittleEndian.PutUint32(rec[9:13], uint32(n))
	binary.LittleEndian.PutUint32(rec[13:17], colSum(rec[journalHdrLen:]))
	p := &pendingAppend{rec: rec, done: make(chan struct{})}
	j.mu.Lock()
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		putRecBuf(rb)
		return 0, fmt.Errorf("store journal: refusing append after failed commit: %w", err)
	}
	j.queue = append(j.queue, p)
	if !j.leader {
		j.lead()
	} else {
		// A leader is committing; it (or its successor loop) will pick
		// this record up in a following batch.
		j.mu.Unlock()
	}
	<-p.done
	putRecBuf(rb)
	return p.seq, p.err
}

// lead drains the queue as the batch leader. It is entered with j.mu
// held and returns with it released. A commit that fails — or a leader
// killed mid-commit by a chaos.Crasher panic, which stands in for the
// whole process dying — fails its own batch and every appender still
// queued behind it and gives leadership up, so no waiter is left
// blocked on a leader that no longer exists.
func (j *journal) lead() {
	j.leader = true
	var batch []*pendingAppend
	abandon := func(err error) {
		j.mu.Lock()
		stranded := j.queue
		j.queue, j.leader, j.failed = nil, false, err
		j.mu.Unlock()
		finishAll(batch, err)
		finishAll(stranded, err)
	}
	defer func() {
		if r := recover(); r != nil {
			abandon(fmt.Errorf("store journal: crashed during batch commit"))
			panic(r)
		}
	}()
	for len(j.queue) > 0 {
		if j.perOp {
			batch, j.queue = j.queue[:1:1], j.queue[1:]
		} else {
			batch, j.queue = j.queue, nil
		}
		base := j.seq
		j.mu.Unlock()
		if err := j.writeBatch(base, batch); err != nil {
			abandon(fmt.Errorf("store journal: %w", err))
			return
		}
		j.batches.Inc()
		j.records.Add(int64(len(batch)))
		j.mu.Lock()
		j.seq = base + uint64(len(batch))
		finishAll(batch, nil)
	}
	j.leader = false
	j.mu.Unlock()
}

// writeBatch commits one batch: the leader stamps consecutive sequence
// numbers into the queued record buffers and writes them to the end of
// the file back to back, with the torn-append crash point at the
// batch's byte midpoint (inside a record or exactly between two), then
// syncs once. A crash before the sync leaves at most a prefix of whole
// records plus one torn one the CRC rejects — each record is still
// individually all-or-nothing, which is what the crash matrix asserts.
func (j *journal) writeBatch(base uint64, batch []*pendingAppend) error {
	total := 0
	for i, p := range batch {
		p.seq = base + 1 + uint64(i)
		binary.LittleEndian.PutUint64(p.rec[0:8], p.seq)
		total += len(p.rec)
	}
	j.batchBytes.Add(int64(total))
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	half := total / 2
	for _, p := range batch {
		rec := p.rec
		if half >= 0 && half < len(rec) { // the midpoint is in (or just before) this record
			if half > 0 {
				if _, err := j.f.Write(rec[:half]); err != nil {
					return err
				}
			}
			j.crash.Hit("journal.append.torn")
			rec = rec[half:]
		}
		half -= len(p.rec)
		if _, err := j.f.Write(rec); err != nil {
			return err
		}
	}
	j.crash.Hit("journal.batch.before-sync")
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// rotate rewrites the journal keeping only records with seq >
// keepAfter (normally none, right after a Save), atomically. The
// caller must have quiesced appends (Save holds the quiesce write
// lock, so no batch leader can be mid-commit here). The fresh file's
// tail is known again, so a latched commit failure is cleared.
func (j *journal) rotate(keepAfter uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	keep := journalMagic
	// Nothing acknowledged lies past j.seq, so the usual rotation (right
	// after a Save, keepAfter == j.seq) keeps nothing and does not read
	// the file at all.
	if keepAfter < j.seq {
		keep = j.suffixAfter(keepAfter)
	}
	if err := writeFileAtomic(j.path, keep); err != nil {
		return fmt.Errorf("store journal: rotate: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store journal: rotate: %w", err)
	}
	// The rotated content is already durable under the same name; the
	// old descriptor's close result cannot affect it.
	_ = j.f.Close()
	j.f = f
	j.failed = nil
	return nil
}

// suffixAfter returns a journal image holding the on-disk records with
// seq > keepAfter. An unreadable journal yields an empty one: the
// snapshot that triggered the rotation already covers every
// acknowledged operation.
func (j *journal) suffixAfter(keepAfter uint64) []byte {
	raw, err := os.ReadFile(j.path)
	if err != nil {
		return journalMagic
	}
	recs, validLen, _, err := parseJournal(raw)
	if err != nil {
		return journalMagic
	}
	// Sequences ascend, so the kept records are the file's tail.
	off := int64(len(journalMagic))
	for _, r := range recs {
		if r.Seq > keepAfter {
			break
		}
		off += journalHdrLen + int64(len(r.Payload))
	}
	return append(append([]byte(nil), journalMagic...), raw[off:validLen]...)
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// readJournal reads and validates path; see parseJournal. A missing
// file is an empty journal.
func readJournal(path string) (recs []journalRecord, validLen int64, torn int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, err
	}
	return parseJournal(raw)
}

// parseJournal validates a journal file image. It returns the records
// of the longest valid prefix, the byte length of that prefix (validLen
// — pass to openJournal so the tail is physically dropped), and how
// many torn/corrupt tail bytes were discarded. The records' payloads
// alias raw: nothing is copied. A damaged header is ErrCorrupted
// (nothing after it can be trusted); a journal written in the retired
// v1 (gob) format is ErrJournalVersion.
func parseJournal(raw []byte) (recs []journalRecord, validLen int64, torn int64, err error) {
	if bytes.HasPrefix(raw, journalMagicV1) {
		return nil, 0, 0, fmt.Errorf("%w: %s is a v1 (gob) journal; this build reads %s only",
			ErrJournalVersion, journalFile, journalMagic)
	}
	if !bytes.HasPrefix(raw, journalMagic) {
		return nil, 0, 0, fmt.Errorf("%w: %s: bad journal header", ErrCorrupted, journalFile)
	}
	off := int64(len(journalMagic))
	size := int64(len(raw))
	var prevSeq uint64
	for {
		if size-off < journalHdrLen {
			break // torn header (or clean end)
		}
		hdr := raw[off : off+journalHdrLen]
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		typ := recType(hdr[8])
		plen := int64(binary.LittleEndian.Uint32(hdr[9:13]))
		want := binary.LittleEndian.Uint32(hdr[13:17])
		if plen > maxJournalRecord || off+journalHdrLen+plen > size {
			break // torn payload
		}
		end := off + journalHdrLen + plen
		payload := raw[off+journalHdrLen : end : end]
		if colSum(payload) != want {
			break // corrupt record: discard it and everything after
		}
		if seq <= prevSeq || typ < recPut || typ > recMigrateCommit {
			break // garbage that happens to checksum — not a valid record
		}
		recs = append(recs, journalRecord{Seq: seq, Type: typ, Payload: payload})
		prevSeq = seq
		off = end
	}
	return recs, off, size - off, nil
}

// removeJournal deletes the journal at path (used when a full snapshot
// into a foreign directory supersedes whatever journal lived there).
func removeJournal(path string) error {
	err := os.Remove(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
