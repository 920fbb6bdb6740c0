package netio

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"approxcode/internal/chaos"
)

// FileBackend is a DataNode's durable column store: one append-only log
// per root directory,
//
//	<root>/columns.log = magic | record | record | ...
//	record             = header | object name | column bytes | CRC-32C
//	header (20 bytes)  = u32 node | u32 stripe | u32 name length |
//	                     u32 column length | u32 records left in the batch
//
// (little-endian; the CRC covers header, name and bytes), and an
// in-memory index (node, object, stripe) → (offset, length) of each
// column's latest record, rebuilt by scanning the log at open.
//
// The unit of a write is a batch — the columns of one WriteColumnsCtx
// call; WriteColumn is a batch of one. A batch is appended with its
// records back to back, made durable with one fdatasync, and only then
// entered in the index and acknowledged. That gives the contract the
// store builds on:
//
//   - an acknowledged column survives a crash or power loss;
//   - a batch is all or nothing: the scan at open accepts a batch only
//     when every record of it is whole (the "records left" countdown
//     reaches zero with every CRC good) and truncates the log at the
//     first batch that is not, so after a kill at any byte of an append
//     every column of that batch reads as it did before the batch;
//   - a reader sees a column entirely old or entirely new, never a mix:
//     reads go through the index, which changes after the bytes are
//     down, and records are never overwritten in place.
//
// An empty write is a tombstone: the column reads as missing from then
// on. Overwritten and deleted records are dead bytes; whenever dead
// bytes exceed live bytes — checked at open and after every batch — the
// live records are copied to a fresh log that replaces the old one
// (temp file, fsync, rename, directory fsync), so the log never holds
// more than twice its live bytes once a write has returned. Compaction
// runs under the write lock: readers carry on, but writers wait while
// the live records are copied, which on a very large log is a long
// stall (DESIGN.md §13).
//
// Reads are one pread on the open log, no open/stat/close. Column
// bytes are not checksummed on read: integrity is end to end, the
// store's CRC per column and sub-block.
type FileBackend struct {
	root  string
	syncs atomic.Int64
	// crasher is the crash-point hook of the kill tests (nil outside
	// them): backend.append.torn at a batch's byte midpoint,
	// backend.before-sync, backend.compact.before-rename.
	crasher *chaos.Crasher

	// wmu serializes writers (append, sync, compaction) and owns size,
	// live and failed. mu guards what readers share with them: the open
	// log, the index and the per-node counts. A writer takes mu only to
	// publish, after its bytes are durable.
	wmu    sync.Mutex
	size   int64 // log length: the next record's offset
	live   int64 // bytes of records the index points at
	failed error // latched append/sync failure: the tail is unknown until reopened

	mu    sync.RWMutex
	f     *os.File
	index map[colKey]colLoc
	nodes map[uint32]int // live columns per node index
}

// ErrBackendLayout reports a FileBackend root that is not a column log
// this version reads: the directory-per-node layout of earlier versions
// (<root>/n<node>/<hex>.<stripe>), or a log of another format version.
// Nothing in the directory is touched. To upgrade a DataNode, wipe the
// directory and let it rejoin empty; RepairAll rebuilds its columns.
var ErrBackendLayout = errors.New("netio: backend directory is not a column log of this version")

const (
	logName      = "columns.log"
	logTempName  = "columns.log.tmp"
	logMagic     = "APPRCOL1"
	recHeaderLen = 20
	recSumLen    = 4
	// maxObjectName bounds a record's name; a longer announced name is
	// corruption, a longer written one an invalid request.
	maxObjectName = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type colKey struct {
	node, stripe uint32
	object       string
}

// colLoc locates a column's bytes in the log.
type colLoc struct {
	off int64
	n   uint32
}

// recLen is the log space of a record.
func recLen(object string, n uint32) int64 {
	return recHeaderLen + int64(len(object)) + int64(n) + recSumLen
}

// appendRecordHead appends a record's header and name to b.
func appendRecordHead(b []byte, k colKey, n, left uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, k.node)
	b = binary.LittleEndian.AppendUint32(b, k.stripe)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(k.object)))
	b = binary.LittleEndian.AppendUint32(b, n)
	b = binary.LittleEndian.AppendUint32(b, left)
	return append(b, k.object...)
}

// NewFileBackend opens (creating it if needed) the column log under
// root: it scans the log into the index, truncates a torn tail, and
// compacts when more than half the log is dead. A root in an older
// layout is refused with ErrBackendLayout.
func NewFileBackend(root string) (*FileBackend, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("netio: create backend root: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("netio: list backend root: %w", err)
	}
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), "n"); ok && e.IsDir() {
			if _, err := strconv.Atoi(rest); err == nil {
				return nil, fmt.Errorf("%w: %s holds per-column files (%s)", ErrBackendLayout, root, e.Name())
			}
		}
	}
	// A compaction that died before its rename left only this behind.
	if err := os.Remove(filepath.Join(root, logTempName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("netio: remove stale compaction file: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(root, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("netio: open column log: %w", err)
	}
	fb := &FileBackend{root: root, f: f}
	if err := fb.load(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return fb, nil
}

// load brings a freshly opened log to a consistent state and builds the
// index from it.
func (f *FileBackend) load() error {
	st, err := f.f.Stat()
	if err != nil {
		return fmt.Errorf("netio: stat column log: %w", err)
	}
	head := make([]byte, len(logMagic))
	n, err := f.f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return fmt.Errorf("netio: read column log: %w", err)
	}
	if !strings.HasPrefix(logMagic, string(head[:n])) {
		return fmt.Errorf("%w: %s starts %q", ErrBackendLayout, f.f.Name(), head[:n])
	}
	fileSize := st.Size()
	if n < len(logMagic) {
		// New, or killed while being created: nothing was ever
		// acknowledged out of it.
		if err := f.f.Truncate(0); err != nil {
			return fmt.Errorf("netio: reset column log: %w", err)
		}
		if _, err := f.f.WriteAt([]byte(logMagic), 0); err != nil {
			return fmt.Errorf("netio: start column log: %w", err)
		}
		if err := f.f.Sync(); err != nil {
			return fmt.Errorf("netio: sync column log: %w", err)
		}
		if err := syncDir(f.root); err != nil {
			return err
		}
		fileSize = int64(len(logMagic))
	}
	f.size = int64(len(logMagic))
	f.index = make(map[colKey]colLoc)
	f.nodes = make(map[uint32]int)
	body := io.NewSectionReader(f.f, f.size, fileSize-f.size)
	f.size += scanLog(bufio.NewReaderSize(body, 1<<20), body.Size(), func(k colKey, off int64, n uint32) {
		f.apply(k, colLoc{off: int64(len(logMagic)) + off, n: n})
	})
	if f.size < fileSize {
		// A torn tail: the unacknowledged end of the last append.
		if err := f.f.Truncate(f.size); err != nil {
			return fmt.Errorf("netio: truncate torn log tail: %w", err)
		}
		if err := f.f.Sync(); err != nil {
			return fmt.Errorf("netio: sync column log: %w", err)
		}
	}
	return f.compactIfMostlyDead()
}

// scanLog reads records from r, which holds size bytes, and calls add
// for every record of every complete batch, in log order, with the
// offset of the column bytes from the start of r (n = 0: a tombstone).
// It returns the length of the valid prefix: the scan stops at the first
// batch with a record that is cut short, fails its CRC, or breaks the
// batch countdown. It trusts no announced length beyond the bytes that
// are actually there, and holds no more than one batch's keys.
func scanLog(r io.Reader, size int64, add func(k colKey, dataOff int64, n uint32)) (valid int64) {
	type staged struct {
		k   colKey
		off int64
		n   uint32
	}
	var (
		batch    []staged
		pos      int64 // bytes consumed
		hdr      [recHeaderLen]byte
		chunk    = make([]byte, maxObjectName)
		lastName string
		wantLeft uint32 // the countdown value of the batch's previous record
	)
	for {
		if size-pos < recHeaderLen+recSumLen {
			return valid
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid
		}
		k := colKey{node: binary.LittleEndian.Uint32(hdr[0:]), stripe: binary.LittleEndian.Uint32(hdr[4:])}
		nameLen := binary.LittleEndian.Uint32(hdr[8:])
		n := binary.LittleEndian.Uint32(hdr[12:])
		left := binary.LittleEndian.Uint32(hdr[16:])
		if nameLen > maxObjectName || int64(nameLen)+int64(n) > size-pos-recHeaderLen-recSumLen {
			return valid
		}
		if len(batch) > 0 && left+1 != wantLeft {
			return valid
		}
		wantLeft = left
		sum := crc32.Update(0, castagnoli, hdr[:])
		name := chunk[:nameLen]
		if _, err := io.ReadFull(r, name); err != nil {
			return valid
		}
		sum = crc32.Update(sum, castagnoli, name)
		// Consecutive records mostly share their object: share the string.
		if string(name) != lastName {
			lastName = string(name)
		}
		k.object = lastName
		dataOff := pos + recHeaderLen + int64(nameLen)
		for rest := int64(n); rest > 0; {
			part := chunk[:min(rest, int64(len(chunk)))]
			if _, err := io.ReadFull(r, part); err != nil {
				return valid
			}
			sum = crc32.Update(sum, castagnoli, part)
			rest -= int64(len(part))
		}
		if _, err := io.ReadFull(r, hdr[:recSumLen]); err != nil || binary.LittleEndian.Uint32(hdr[:]) != sum {
			return valid
		}
		pos = dataOff + int64(n) + recSumLen
		batch = append(batch, staged{k, dataOff, n})
		if left > 0 {
			continue
		}
		for _, s := range batch {
			add(s.k, s.off, s.n)
		}
		batch = batch[:0]
		valid = pos
	}
}

// apply enters one durable record in the index: a column's new location,
// or (n = 0) its deletion. Callers hold mu for writing, or own f alone.
func (f *FileBackend) apply(k colKey, loc colLoc) {
	if old, ok := f.index[k]; ok {
		f.live -= recLen(k.object, old.n)
		if loc.n == 0 {
			delete(f.index, k)
			if f.nodes[k.node]--; f.nodes[k.node] == 0 {
				delete(f.nodes, k.node)
			}
			return
		}
	} else if loc.n == 0 {
		return
	} else {
		f.nodes[k.node]++
	}
	f.index[k] = loc
	f.live += recLen(k.object, loc.n)
}

// Close releases the log. Calls on a closed backend fail.
func (f *FileBackend) Close() error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed == nil {
		f.failed = ErrClosed
	}
	return f.f.Close()
}

// Syncs reports how many durable commits (one fdatasync each) the
// backend has made: one per acknowledged batch. A server exports it as
// netio_backend_syncs_total.
func (f *FileBackend) Syncs() int64 { return f.syncs.Load() }

// ReadColumn implements chaos.NodeIO.
func (f *FileBackend) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return f.read(node, object, stripe, 0, -1)
}

// ReadColumnAt implements chaos.PartialReader: one pread of the
// requested range.
func (f *FileBackend) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("%w: negative range [%d,%d)", ErrInvalid, off, off+n)
	}
	return f.read(node, object, stripe, off, n)
}

// read returns n bytes of the column from off; n < 0 means all of it.
func (f *FileBackend) read(node int, object string, stripe, off, n int) ([]byte, error) {
	k, err := keyOf(node, object, stripe)
	if err != nil {
		return nil, err
	}
	// The read lock is held across the pread so that a compaction cannot
	// swap and close the log under it.
	f.mu.RLock()
	defer f.mu.RUnlock()
	loc, ok := f.index[k]
	if !ok {
		return nil, fmt.Errorf("%w: node %d %s/%d", chaos.ErrColumnMissing, node, object, stripe)
	}
	if n < 0 {
		n = int(loc.n)
	}
	// Sum in int64: off+n wraps on 32-bit platforms.
	if int64(off)+int64(n) > int64(loc.n) {
		return nil, fmt.Errorf("%w: range [%d,%d) outside column of %d bytes",
			ErrInvalid, off, int64(off)+int64(n), loc.n)
	}
	out := make([]byte, n)
	if _, err := f.f.ReadAt(out, loc.off+int64(off)); err != nil {
		return nil, fmt.Errorf("netio: read column: %w", err)
	}
	return out, nil
}

func keyOf(node int, object string, stripe int) (colKey, error) {
	if node < 0 || stripe < 0 || int64(node) > math.MaxUint32 || int64(stripe) > math.MaxUint32 || len(object) > maxObjectName {
		return colKey{}, fmt.Errorf("%w: column node %d %.40q/%d", ErrInvalid, node, object, stripe)
	}
	return colKey{node: uint32(node), stripe: uint32(stripe), object: object}, nil
}

// WriteColumn implements chaos.NodeIO: a batch of one.
func (f *FileBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	return chaos.ErrAt(f.WriteColumnsCtx(context.Background(), object, []chaos.ColumnWrite{{Node: node, Stripe: stripe, Data: data}}), 0)
}

// WriteColumnsCtx implements chaos.BatchWriter: the valid writes become
// one batch — appended, synced once, then published — and an invalid
// one (a negative index, an oversized name or column) fails alone. The
// context is not consulted: a disk write cannot be called back.
func (f *FileBackend) WriteColumnsCtx(_ context.Context, object string, writes []chaos.ColumnWrite) []error {
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(writes))
		}
		errs[i] = err
	}
	recs := make([]logRec, 0, len(writes))
	for i, w := range writes {
		k, err := keyOf(w.Node, object, w.Stripe)
		if err == nil && int64(len(w.Data)) > math.MaxUint32 {
			err = fmt.Errorf("%w: column of %d bytes", ErrInvalid, len(w.Data))
		}
		if err != nil {
			fail(i, err)
			continue
		}
		recs = append(recs, logRec{k: k, data: w.Data, at: i})
	}
	if len(recs) == 0 {
		return errs
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.failed != nil {
		for _, r := range recs {
			fail(r.at, fmt.Errorf("netio: column log unusable: %w", f.failed))
		}
		return errs
	}
	pieces, end := encodeBatch(recs, f.size)
	if err := f.commit(pieces, end-f.size); err != nil {
		f.failed = err
		for _, r := range recs {
			fail(r.at, err)
		}
		return errs
	}
	f.mu.Lock()
	for _, r := range recs {
		f.apply(r.k, r.loc)
	}
	f.mu.Unlock()
	f.size = end
	// The batch is durable and acknowledged whatever becomes of the
	// compaction; one that fails is tried again after the next batch.
	_ = f.compactIfMostlyDead()
	return errs
}

// logRec is one record of a batch on its way to the log.
type logRec struct {
	k    colKey
	data []byte // empty: a tombstone
	loc  colLoc // where data lands; encodeBatch fills it in
	at   int    // the write's index in the caller's batch
}

// encodeBatch lays recs out as the records of one batch starting at log
// offset base. It returns the batch as the byte slices to append, in
// order — every header, name and CRC packed into small slices of one
// buffer, each column the caller's own slice between two of them — and
// the offset the batch ends at.
func encodeBatch(recs []logRec, base int64) (pieces [][]byte, end int64) {
	small := make([]byte, 0, len(recs)*(recHeaderLen+len(recs[0].k.object)+recSumLen))
	pieces = make([][]byte, 0, 2*len(recs)+1)
	mark := 0 // small[mark:] is not in pieces yet
	end = base
	for i := range recs {
		r := &recs[i]
		head := len(small)
		small = appendRecordHead(small, r.k, uint32(len(r.data)), uint32(len(recs)-1-i))
		sum := crc32.Update(crc32.Update(0, castagnoli, small[head:]), castagnoli, r.data)
		r.loc = colLoc{off: end + int64(len(small)-head), n: uint32(len(r.data))}
		end += recLen(r.k.object, r.loc.n)
		if len(r.data) > 0 {
			pieces = append(pieces, small[mark:], r.data)
			mark = len(small)
		}
		small = binary.LittleEndian.AppendUint32(small, sum)
	}
	return append(pieces, small[mark:]), end
}

// commit appends the pieces (total bytes) at the end of the log and
// makes them durable.
func (f *FileBackend) commit(pieces [][]byte, total int64) error {
	off, half := f.size, total/2 // half: bytes still to go before the batch's midpoint, -1 once past it
	for _, p := range pieces {
		if half >= int64(len(p)) {
			half -= int64(len(p))
		} else if half >= 0 {
			if _, err := f.f.WriteAt(p[:half], off); err != nil {
				return fmt.Errorf("netio: append to column log: %w", err)
			}
			f.crasher.Hit("backend.append.torn")
			off, p, half = off+half, p[half:], -1
		}
		if _, err := f.f.WriteAt(p, off); err != nil {
			return fmt.Errorf("netio: append to column log: %w", err)
		}
		off += int64(len(p))
	}
	f.crasher.Hit("backend.before-sync")
	if err := fdatasync(f.f); err != nil {
		return fmt.Errorf("netio: sync column log: %w", err)
	}
	f.syncs.Add(1)
	return nil
}

// compactIfMostlyDead rewrites the log when its dead bytes exceed its
// live bytes: the live records, in log order, go to a fresh file that
// replaces the log. Callers hold wmu (or own f alone); readers keep
// using the old log until the swap.
func (f *FileBackend) compactIfMostlyDead() error {
	if dead := f.size - int64(len(logMagic)) - f.live; dead <= f.live {
		return nil
	}
	type entry struct {
		k   colKey
		loc colLoc
	}
	entries := make([]entry, 0, len(f.index))
	for k, loc := range f.index {
		entries = append(entries, entry{k, loc})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].loc.off < entries[j].loc.off })

	tmpPath := filepath.Join(f.root, logTempName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("netio: compact column log: %w", err)
	}
	abandon := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("netio: compact column log: %w", err)
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	_, _ = w.WriteString(logMagic) // a bufio.Writer's error sticks: Flush reports it
	index := make(map[colKey]colLoc, len(entries))
	size := int64(len(logMagic))
	var head []byte
	for _, e := range entries {
		head = appendRecordHead(head[:0], e.k, e.loc.n, 0)
		sum := crc32.New(castagnoli)
		_, _ = sum.Write(head)
		_, _ = w.Write(head)
		src := io.NewSectionReader(f.f, e.loc.off, int64(e.loc.n))
		if _, err := io.Copy(io.MultiWriter(w, sum), src); err != nil {
			return abandon(err)
		}
		_, _ = w.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32()))
		index[e.k] = colLoc{off: size + int64(len(head)), n: e.loc.n}
		size += recLen(e.k.object, e.loc.n)
	}
	if err := w.Flush(); err != nil {
		return abandon(err)
	}
	if err := tmp.Sync(); err != nil {
		return abandon(err)
	}
	f.crasher.Hit("backend.compact.before-rename")
	if err := os.Rename(tmpPath, filepath.Join(f.root, logName)); err != nil {
		return abandon(err)
	}
	// Appends go to the new file from here on. Until the rename is
	// durable a crash would bring the old log back without them, so a
	// directory sync that fails must stop further acknowledgements.
	if err := syncDir(f.root); err != nil {
		f.failed = err
	}
	f.mu.Lock()
	old := f.f
	f.f, f.index, f.size = tmp, index, size
	f.mu.Unlock()
	_ = old.Close() // read-only from here on: nothing to lose
	return f.failed
}

// syncDir makes the directory's entries (a created or renamed log)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("netio: sync backend root: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("netio: sync backend root: %w", err)
	}
	return nil
}

// Nodes lists the node indexes that hold at least one column, sorted —
// a restarted DataNode uses this to re-register what it holds.
func (f *FileBackend) Nodes() ([]int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	nodes := make([]int, 0, len(f.nodes))
	for n := range f.nodes {
		nodes = append(nodes, int(n))
	}
	sort.Ints(nodes)
	return nodes, nil
}
