package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), journalFile)
}

func appendRecords(t *testing.T, j *journal, n int) []uint64 {
	t.Helper()
	var seqs []uint64
	for i := 0; i < n; i++ {
		seq, err := j.append(recFailNodes, failRecord{Nodes: []int{i}})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func TestJournalAppendReadRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqs := appendRecords(t, j, 3)
	if seqs[0] != 8 || seqs[2] != 10 {
		t.Fatalf("sequences %v, want continuation from 7", seqs)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("clean journal reports %d torn bytes", torn)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != seqs[i] || r.Type != recFailNodes {
			t.Fatalf("record %d: seq %d type %d", i, r.Seq, r.Type)
		}
		var fr failRecord
		if err := r.decode(&fr); err != nil {
			t.Fatal(err)
		}
		if len(fr.Nodes) != 1 || fr.Nodes[0] != i {
			t.Fatalf("record %d payload %v", i, fr.Nodes)
		}
	}
}

// TestJournalTruncationSweep truncates the journal at every byte offset:
// below the magic header the file is rejected as corrupt; at or past it,
// readJournal returns the longest valid record prefix and counts the
// rest as torn — never an error, never a panic, never a partial record.
func TestJournalTruncationSweep(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, j, 4)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, _, err := readJournal(path)
	if err != nil || len(whole) != 4 {
		t.Fatalf("baseline read: %d records, %v", len(whole), err)
	}
	for off := 0; off < len(full); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, validLen, torn, err := readJournal(path)
		if off < len(journalMagic) {
			if err == nil {
				t.Fatalf("offset %d: headerless journal accepted", off)
			}
			continue
		}
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if validLen+torn != int64(off) {
			t.Fatalf("offset %d: validLen %d + torn %d != size", off, validLen, torn)
		}
		for i, r := range recs {
			if r.Seq != whole[i].Seq || r.Type != whole[i].Type {
				t.Fatalf("offset %d: record %d is not a prefix of the original", off, i)
			}
		}
		// Records past validLen must have been dropped whole: the prefix
		// ends exactly on a record boundary of the original file.
		if recs != nil && validLen > int64(off) {
			t.Fatalf("offset %d: validLen %d beyond file size", off, validLen)
		}
	}
}

func TestJournalRotateKeepsSuffix(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqs := appendRecords(t, j, 5)
	if err := j.rotate(seqs[2]); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != seqs[3] || recs[1].Seq != seqs[4] {
		t.Fatalf("rotate kept %d records (first seq %v), want the 2 past %d", len(recs), recs, seqs[2])
	}
	// Appends continue with monotonic sequences after rotation.
	more := appendRecords(t, j, 1)
	if more[0] != seqs[4]+1 {
		t.Fatalf("post-rotate seq %d, want %d", more[0], seqs[4]+1)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err = readJournal(path)
	if err != nil || len(recs) != 3 {
		t.Fatalf("after post-rotate append: %d records, %v", len(recs), err)
	}
}

// benchShapedPut is a Put record shaped like one object of the
// benchmark corpus: 8 GOPs of IBBPBBP…, 240 segments (I 24 KiB
// important, P 8 KiB, B 4 KiB), 1.375 MiB of payload.
func benchShapedPut() putRecord {
	const gop = "IBBPBBPBBPBBPBBPBBPBBPBBPBBPBB"
	segs := make([]Segment, 0, 8*len(gop))
	for g := 0; g < 8; g++ {
		for _, frame := range gop {
			size := map[rune]int{'I': 24 << 10, 'P': 8 << 10, 'B': 4 << 10}[frame]
			segs = append(segs, Segment{ID: len(segs), Important: frame == 'I',
				Data: bytes.Repeat([]byte{byte(len(segs))}, size)})
		}
	}
	return putRecord{Name: "obj-000042", Segments: segs}
}

// TestJournalAppendAllocGate is the copy budget of the durable Put
// path, in a form that fires on any host: appending a bench-shaped Put
// record (240 segments, 1.375 MiB) must not allocate per-record
// buffers. The gob journal allocated about 6 MiB per such append
// (encoder growth, bytes.Buffer, the batch buffer); the binary layout
// copies the payload once into a pooled buffer, so steady state is a
// handful of small allocations.
func TestJournalAppendAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	rec := benchShapedPut()
	if got, want := rec.size()-8-putSegEntryLen*len(rec.Segments)-len(rec.Name), 1408<<10; got != want || len(rec.Segments) != 240 {
		t.Fatalf("record carries %d payload bytes in %d segments, want %d in 240", got, len(rec.Segments), want)
	}
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.close() }()
	appendOne := func() {
		if _, err := j.append(recPut, rec); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, appendOne); allocs > 8 {
		t.Errorf("%.1f allocations per Put-record append, budget 8", allocs)
	}
	res := testing.Benchmark(func(b *testing.B) { benchJournalAppend(b, j, rec) })
	if perOp := res.AllocedBytesPerOp(); perOp > 64<<10 {
		t.Errorf("%d bytes allocated per Put-record append (%d appends), budget %d", perOp, res.N, 64<<10)
	}
	t.Logf("append of %d-byte record: %d B/op, %d allocs/op, %v/op",
		rec.size(), res.AllocedBytesPerOp(), res.AllocsPerOp(), res.T/time.Duration(res.N))
}

// benchJournalAppend appends rec b.N times, resetting the file to its
// header every 64 records (off the clock) so a long run stays small.
func benchJournalAppend(b *testing.B, j *journal, rec putRecord) {
	b.ReportAllocs()
	b.SetBytes(int64(rec.size()))
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			b.StopTimer()
			if err := j.f.Truncate(int64(len(journalMagic))); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := j.append(recPut, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalAppendPut(b *testing.B) {
	j, err := createJournal(filepath.Join(b.TempDir(), journalFile), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = j.close() }()
	benchJournalAppend(b, j, benchShapedPut())
}

// TestJournalV1Refused: a journal in the retired gob format is refused
// with ErrJournalVersion by every entry point — strict and lenient
// loads and Recover — and is left on disk untouched. It is never
// misread as v2 records, never treated as a damaged header and
// discarded, and never overwritten by a fresh journal.
func TestJournalV1Refused(t *testing.T) {
	dir, _ := savedTinyStore(t)
	path := filepath.Join(dir, journalFile)
	// A v1 header followed by one record of that format: the 17-byte
	// header is the same, the payload was gob.
	v1 := append([]byte("APPRJNL1"), make([]byte, journalHdrLen+3)...)
	binary.LittleEndian.PutUint64(v1[8:], 1)
	v1[16] = byte(recFailNodes)
	binary.LittleEndian.PutUint32(v1[17:], 3)
	binary.LittleEndian.PutUint32(v1[21:], colSum(v1[25:]))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readJournal(path); !errors.Is(err, ErrJournalVersion) || errors.Is(err, ErrCorrupted) {
		t.Fatalf("readJournal: %v, want ErrJournalVersion", err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("strict load: %v, want ErrJournalVersion", err)
	}
	if _, err := LoadWith(dir, LoadOptions{Lenient: true}); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("lenient load: %v, want ErrJournalVersion", err)
	}
	if _, _, err := Recover(dir, LoadOptions{Lenient: true}); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("recover: %v, want ErrJournalVersion", err)
	}
	if _, _, err := OpenDurable(dir, tinyConfig(t)); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("open durable: %v, want ErrJournalVersion", err)
	}
	s, err := Open(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.attachJournal(dir); !errors.Is(err, ErrJournalVersion) {
		t.Fatalf("attach: %v, want ErrJournalVersion", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("the refused journal was modified (%d -> %d bytes, %v)", len(v1), len(after), err)
	}
}
