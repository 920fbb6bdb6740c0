package store

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Journal record payloads (journal format v2). Every payload is a fixed
// little-endian layout: counts and lengths first, then fixed-width
// tables, then the variable-length bytes verbatim. Go ints travel as
// int64, counts and lengths as uint32 (a record is capped at
// maxJournalRecord, so they cannot overflow). The encoding is
// canonical — map entries are written in ascending key order, booleans
// are 0 or 1, and a payload must be consumed to its last byte — so an
// accepted payload re-encodes to exactly the bytes that were read.
//
// Decoders never copy payload bytes: Segment.Data, updateRecord.Data
// and repairStripeRecord.Cols alias the buffer they were decoded from
// (the journal's file image during replay). Replay hands them straight
// to code that copies at the NodeIO boundary, so nothing retains the
// image. Every count and length is checked against the bytes remaining
// before anything is allocated, so a hostile length cannot make a
// decoder allocate more than a small multiple of its input.

// recordBody is a journal payload that knows its own wire layout.
type recordBody interface {
	// size is the exact encoded length in bytes.
	size() int
	// marshal writes exactly size() bytes.
	marshal(w *recWriter)
}

// recordDecoder is the receiving half, implemented by the pointer type
// of every recordBody.
type recordDecoder interface {
	// unmarshal decodes from r; malformed input is reported by r.done.
	unmarshal(r *recReader)
}

// recWriter writes fields into a presized buffer, advancing past each.
type recWriter struct{ b []byte }

func (w *recWriter) u8(v uint8) { w.b[0] = v; w.b = w.b[1:] }

func (w *recWriter) u32(v int) {
	binary.LittleEndian.PutUint32(w.b, uint32(v))
	w.b = w.b[4:]
}

func (w *recWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.b, v)
	w.b = w.b[8:]
}

func (w *recWriter) i64(v int) { w.u64(uint64(int64(v))) }

func (w *recWriter) ints(v []int) {
	for _, x := range v {
		w.i64(x)
	}
}

func (w *recWriter) bytes(p []byte) { w.b = w.b[copy(w.b, p):] }
func (w *recWriter) str(s string)   { w.b = w.b[copy(w.b, s):] }

// recReader reads fields off the front of a payload. The first
// out-of-bounds or non-canonical field latches bad; later reads return
// zero values, so decoders run straight-line and check once via done.
type recReader struct {
	b   []byte
	bad bool
}

// take returns the next n bytes (aliasing the payload; nil for n == 0).
func (r *recReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *recReader) u8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *recReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *recReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *recReader) i64() int { return int(int64(r.u64())) }

// count reads a uint32 element count (or byte length, elem = 1) and
// rejects it unless that many elem-byte entries still fit in the
// payload — the bound that makes allocating for them safe.
func (r *recReader) count(elem int) int {
	n := int(r.u32())
	if r.bad || n < 0 || n > len(r.b)/elem {
		r.bad = true
		return 0
	}
	return n
}

func (r *recReader) ints(n int) []int {
	tab := recReader{b: r.take(n * 8)}
	if n == 0 || r.bad {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = tab.i64()
	}
	return v
}

func (r *recReader) str(n int) string { return string(r.take(n)) }

// done reports whether the payload decoded cleanly and completely.
func (r *recReader) done() error {
	if r.bad {
		return fmt.Errorf("%w: journal record payload truncated or malformed", ErrCorrupted)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: journal record payload has %d trailing bytes", ErrCorrupted, len(r.b))
	}
	return nil
}

// decodeRecord decodes payload into body; the result aliases payload.
func decodeRecord(payload []byte, body recordDecoder) error {
	r := recReader{b: payload}
	body.unmarshal(&r)
	return r.done()
}

// putRecord: | nameLen u32 | nsegs u32 | nsegs × (id i64, important u8,
// len u32) | name | segment bytes back to back |
type putRecord struct {
	Name     string
	Segments []Segment
}

const putSegEntryLen = 8 + 1 + 4

func (p putRecord) size() int {
	n := 8 + putSegEntryLen*len(p.Segments) + len(p.Name)
	for _, s := range p.Segments {
		n += len(s.Data)
	}
	return n
}

func (p putRecord) marshal(w *recWriter) {
	w.u32(len(p.Name))
	w.u32(len(p.Segments))
	for _, s := range p.Segments {
		w.i64(s.ID)
		if s.Important {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(len(s.Data))
	}
	w.str(p.Name)
	for _, s := range p.Segments {
		w.bytes(s.Data)
	}
}

func (p *putRecord) unmarshal(r *recReader) {
	nameLen := r.count(1)
	n := r.count(putSegEntryLen)
	tab := recReader{b: r.take(n * putSegEntryLen)}
	p.Name = r.str(nameLen)
	p.Segments = nil
	if n == 0 || r.bad {
		return
	}
	p.Segments = make([]Segment, n)
	for i := range p.Segments {
		s := &p.Segments[i]
		s.ID = tab.i64()
		imp := tab.u8()
		s.Important = imp == 1
		s.Data = r.take(int(tab.u32()))
		if imp > 1 {
			r.bad = true
		}
	}
}

// updateRecord: | nameLen u32 | id i64 | dataLen u32 | name | data |
type updateRecord struct {
	Name string
	ID   int
	Data []byte
}

func (u updateRecord) size() int { return 16 + len(u.Name) + len(u.Data) }

func (u updateRecord) marshal(w *recWriter) {
	w.u32(len(u.Name))
	w.i64(u.ID)
	w.u32(len(u.Data))
	w.str(u.Name)
	w.bytes(u.Data)
}

func (u *updateRecord) unmarshal(r *recReader) {
	nameLen := r.count(1)
	u.ID = r.i64()
	dataLen := r.count(1)
	u.Name = r.str(nameLen)
	u.Data = r.take(dataLen)
}

// failRecord: | n u32 | n × node i64 |
type failRecord struct {
	Nodes []int
}

func (f failRecord) size() int               { return 4 + 8*len(f.Nodes) }
func (f failRecord) marshal(w *recWriter)    { w.u32(len(f.Nodes)); w.ints(f.Nodes) }
func (f *failRecord) unmarshal(r *recReader) { f.Nodes = r.ints(r.count(8)) }

// repairStartRecord opens a repair run. The run's ID is this record's
// own sequence number; checkpoints and the done record carry it so
// stale checkpoints from superseded runs are not mistaken for progress
// of the live one.
//
// Layout: | n u32 | n × node i64 |
type repairStartRecord struct {
	Failed []int
}

func (s repairStartRecord) size() int               { return 4 + 8*len(s.Failed) }
func (s repairStartRecord) marshal(w *recWriter)    { w.u32(len(s.Failed)); w.ints(s.Failed) }
func (s *repairStartRecord) unmarshal(r *recReader) { s.Failed = r.ints(r.count(8)) }

// repairStripeRecord is a repair commit checkpoint. It carries the
// rebuilt column bytes, so a checkpointed stripe is durable the moment
// the record is synced: recovery replays the columns onto the
// replacement nodes and a resumed repair skips the stripe entirely.
//
// Layout: | id u64 | stripe i64 | objectLen u32 | ncols u32 | nsums u32
// | nlost u32 | ncols × (node i64, len u32) | nsums × (node i64, sum
// u32) | nlost × segment i64 | object | column bytes in table order |,
// both tables in ascending node order.
type repairStripeRecord struct {
	ID     uint64
	Object string
	Stripe int
	// Cols are the columns written back by this commit (rebuilt,
	// healed, and re-encoded parity), keyed by node index.
	Cols map[int][]byte
	// Sums are the published CRC-32C column checksums for Cols.
	Sums map[int]uint32
	// Lost lists segment IDs this stripe abandoned (zero-filled
	// unimportant data), so a resumed repair's report stays complete.
	Lost []int
}

const repairEntryLen = 8 + 4 // one row of either table

func (s repairStripeRecord) size() int {
	n := 32 + repairEntryLen*(len(s.Cols)+len(s.Sums)) + 8*len(s.Lost) + len(s.Object)
	for _, c := range s.Cols {
		n += len(c)
	}
	return n
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (s repairStripeRecord) marshal(w *recWriter) {
	w.u64(s.ID)
	w.i64(s.Stripe)
	w.u32(len(s.Object))
	w.u32(len(s.Cols))
	w.u32(len(s.Sums))
	w.u32(len(s.Lost))
	cols := sortedKeys(s.Cols)
	for _, ni := range cols {
		w.i64(ni)
		w.u32(len(s.Cols[ni]))
	}
	for _, ni := range sortedKeys(s.Sums) {
		w.i64(ni)
		w.u32(int(s.Sums[ni]))
	}
	w.ints(s.Lost)
	w.str(s.Object)
	for _, ni := range cols {
		w.bytes(s.Cols[ni])
	}
}

func (s *repairStripeRecord) unmarshal(r *recReader) {
	s.ID = r.u64()
	s.Stripe = r.i64()
	objLen := r.count(1)
	ncols := r.count(repairEntryLen)
	nsums := r.count(repairEntryLen)
	nlost := r.count(8)
	colTab := recReader{b: r.take(ncols * repairEntryLen)}
	sumTab := recReader{b: r.take(nsums * repairEntryLen)}
	s.Lost = r.ints(nlost)
	s.Object = r.str(objLen)
	s.Cols, s.Sums = nil, nil
	if r.bad {
		return
	}
	// Both tables must be strictly ascending by node: the canonical
	// order, which also rules out duplicate keys.
	if ncols > 0 {
		s.Cols = make(map[int][]byte, ncols)
	}
	for i, prev := 0, 0; i < ncols; i++ {
		node := colTab.i64()
		s.Cols[node] = r.take(int(colTab.u32()))
		r.bad = r.bad || (i > 0 && node <= prev)
		prev = node
	}
	if nsums > 0 {
		s.Sums = make(map[int]uint32, nsums)
	}
	for i, prev := 0, 0; i < nsums; i++ {
		node := sumTab.i64()
		s.Sums[node] = sumTab.u32()
		r.bad = r.bad || (i > 0 && node <= prev)
		prev = node
	}
}

// repairDoneRecord: | id u64 | n u32 | n × node i64 |
type repairDoneRecord struct {
	ID       uint64
	Unfailed []int
}

func (d repairDoneRecord) size() int { return 12 + 8*len(d.Unfailed) }

func (d repairDoneRecord) marshal(w *recWriter) {
	w.u64(d.ID)
	w.u32(len(d.Unfailed))
	w.ints(d.Unfailed)
}

func (d *repairDoneRecord) unmarshal(r *recReader) {
	d.ID = r.u64()
	d.Unfailed = r.ints(r.count(8))
}

// migrateRecord carries one tier migration (both the begin and the
// commit record). From lets recovery know which redundancy set a
// dangling or committed migration was moving between without trusting
// the in-memory tier, which died with the process.
//
// Layout: | nameLen u32 | from i64 | to i64 | name |
type migrateRecord struct {
	Name     string
	From, To int // tier.Level values
}

func (m migrateRecord) size() int { return 20 + len(m.Name) }

func (m migrateRecord) marshal(w *recWriter) {
	w.u32(len(m.Name))
	w.i64(m.From)
	w.i64(m.To)
	w.str(m.Name)
}

func (m *migrateRecord) unmarshal(r *recReader) {
	nameLen := r.count(1)
	m.From = r.i64()
	m.To = r.i64()
	m.Name = r.str(nameLen)
}
