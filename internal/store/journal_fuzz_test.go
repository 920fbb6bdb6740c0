package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameRecord lays body out as one on-disk record: the 17-byte header
// with a correct CRC, then the payload.
func frameRecord(seq uint64, t recType, payload []byte) []byte {
	rec := make([]byte, journalHdrLen, journalHdrLen+len(payload))
	binary.LittleEndian.PutUint64(rec[0:8], seq)
	rec[8] = byte(t)
	binary.LittleEndian.PutUint32(rec[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[13:17], colSum(payload))
	return append(rec, payload...)
}

// journalImage is a well-formed journal holding every record case.
func journalImage() []byte {
	img := append([]byte(nil), journalMagic...)
	for i, tc := range recordCases() {
		img = append(img, frameRecord(uint64(i+1), tc.t, encodeRecord(tc.body))...)
	}
	return img
}

// fuzzSeeds are the named journal images checked in under
// testdata/fuzz/FuzzJournalRecords (TestFuzzCorpusIsCurrent keeps the
// files equal to these): the ways a journal goes wrong on a real disk,
// plus CRC-valid records whose payloads lie about their lengths.
func fuzzSeeds() map[string][]byte {
	magic := func(recs ...[]byte) []byte {
		return append(append([]byte(nil), journalMagic...), bytes.Join(recs, nil)...)
	}
	fail := func(seq uint64) []byte {
		return frameRecord(seq, recFailNodes, encodeRecord(failRecord{Nodes: []int{int(seq)}}))
	}
	whole := journalImage()
	badCRC := magic(fail(1), fail(2))
	badCRC[len(badCRC)-1] ^= 0x40
	oversized := fail(2)
	binary.LittleEndian.PutUint32(oversized[9:13], 0xFFFFFFFF)
	justOver := fail(2)
	binary.LittleEndian.PutUint32(justOver[9:13], maxJournalRecord+1)
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	return map[string][]byte{
		"valid-all-types":      whole,
		"empty-journal":        magic(),
		"torn-header":          magic(fail(1), fail(2)[:9]),
		"torn-payload":         whole[:len(whole)-5],
		"oversized-length":     magic(fail(1), oversized),
		"length-over-limit":    magic(fail(1), justOver),
		"bad-crc":              badCRC,
		"seq-regression":       magic(fail(5), fail(6), fail(6), fail(7)),
		"seq-zero":             magic(fail(0)),
		"type-zero":            magic(frameRecord(1, 0, nil)),
		"type-past-last":       magic(frameRecord(1, recMigrateCommit+1, nil)),
		"v1-magic":             append([]byte("APPRJNL1"), fail(1)...),
		"short-magic":          journalMagic[:5],
		"put-4G-segments":      magic(frameRecord(1, recPut, bytes.Join([][]byte{le32(0), le32(0xFFFFFFFF)}, nil))),
		"update-data-past-end": magic(frameRecord(1, recUpdate, bytes.Join([][]byte{le32(0), make([]byte, 8), le32(1 << 30)}, nil))),
		"stripe-4G-cols":       magic(frameRecord(1, recRepairStripe, bytes.Join([][]byte{make([]byte, 16), le32(0), le32(0xFFFFFFFF), le32(0), le32(0)}, nil))),
	}
}

// checkPayload: decoding never panics and fails only with ErrCorrupted;
// an accepted payload re-encodes to exactly the bytes that were read.
// That equality is also the allocation bound: size() of what was
// decoded equals len(payload), so every segment, column, table row and
// name byte the decoder built is accounted for by input bytes — nothing
// was sized from a count the input did not back.
func checkPayload(t *testing.T, typ recType, payload []byte) {
	t.Helper()
	d := decoderFor(typ)
	if err := decodeRecord(payload, d); err != nil {
		if !errors.Is(err, ErrCorrupted) {
			t.Fatalf("type %d: decode error %v is not ErrCorrupted", typ, err)
		}
		return
	}
	if again := encodeRecord(d.(recordBody)); !bytes.Equal(again, payload) {
		t.Fatalf("type %d: accepted payload %x re-encodes to %x", typ, payload, again)
	}
}

// checkImage: the reader's contract over an arbitrary file image.
func checkImage(t *testing.T, img []byte) {
	t.Helper()
	recs, validLen, torn, err := parseJournal(img)
	if err != nil {
		if !errors.Is(err, ErrCorrupted) && !errors.Is(err, ErrJournalVersion) {
			t.Fatalf("parse error %v is neither ErrCorrupted nor ErrJournalVersion", err)
		}
		if recs != nil || validLen != 0 || torn != 0 {
			t.Fatalf("refused image still returned %d records, validLen %d, torn %d", len(recs), validLen, torn)
		}
		return
	}
	if validLen+torn != int64(len(img)) {
		t.Fatalf("validLen %d + torn %d != file length %d", validLen, torn, len(img))
	}
	off := int64(len(journalMagic))
	var prev uint64
	for i, r := range recs {
		if r.Seq <= prev || r.Type < recPut || r.Type > recMigrateCommit {
			t.Fatalf("record %d: seq %d after %d, type %d", i, r.Seq, prev, r.Type)
		}
		prev = r.Seq
		off += journalHdrLen
		if len(r.Payload) > 0 && &r.Payload[0] != &img[off] {
			t.Fatalf("record %d: payload was copied out of the file image", i)
		}
		off += int64(len(r.Payload))
		checkPayload(t, r.Type, r.Payload)
	}
	if off != validLen {
		t.Fatalf("accepted records cover %d bytes, validLen is %d", off, validLen)
	}
}

// recordsFromBytes builds one record of every type out of fuzz input,
// for the decode(encode(x)) == x direction.
func recordsFromBytes(data []byte) []recordCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() int { return int(int8(next())) << (next() % 56) }
	blob := func() []byte {
		n := min(int(next())%40, len(data))
		if n == 0 {
			return nil
		}
		b := data[:n:n]
		data = data[n:]
		return b
	}
	nums := func() []int {
		var v []int
		for n := int(next()) % 6; n > 0; n-- {
			v = append(v, num())
		}
		return v
	}
	var segs []Segment
	for n := int(next()) % 5; n > 0; n-- {
		segs = append(segs, Segment{ID: num(), Important: next()&1 == 1, Data: blob()})
	}
	var cols map[int][]byte
	var sums map[int]uint32
	for n := int(next()) % 4; n > 0; n-- {
		if cols == nil {
			cols, sums = map[int][]byte{}, map[int]uint32{}
		}
		ni := num()
		cols[ni] = blob()
		if next()&1 == 1 {
			sums[ni] = uint32(num())
		}
	}
	if len(sums) == 0 {
		sums = nil
	}
	mig := migrateRecord{Name: string(blob()), From: num(), To: num()}
	return []recordCase{
		{t: recPut, body: putRecord{Name: string(blob()), Segments: segs}},
		{t: recUpdate, body: updateRecord{Name: string(blob()), ID: num(), Data: blob()}},
		{t: recFailNodes, body: failRecord{Nodes: nums()}},
		{t: recRepairStart, body: repairStartRecord{Failed: nums()}},
		{t: recRepairStripe, body: repairStripeRecord{ID: uint64(num()), Object: string(blob()),
			Stripe: num(), Cols: cols, Sums: sums, Lost: nums()}},
		{t: recRepairDone, body: repairDoneRecord{ID: uint64(num()), Unfailed: nums()}},
		{t: recMigrateBegin, body: mig},
		{t: recMigrateCommit, body: mig},
	}
}

// FuzzJournalRecords fuzzes the journal reader and every record
// decoder. The input is used three ways: as a journal file image; as
// the raw payload of each of the eight record types (alone, and framed
// with a correct CRC so the file reader hands it to the decoder); and
// as the seed of a record generator. Properties:
//
//   - nothing panics, and errors are ErrCorrupted / ErrJournalVersion;
//   - the accepted prefix plus the reported torn length is the file
//     length, sequences ascend, payloads alias the image;
//   - an accepted payload re-encodes to the bytes that were read (so no
//     decoder allocates for more than its input backs);
//   - decode(encode(x)) == x for every record type.
func FuzzJournalRecords(f *testing.F) {
	// The journal-image seeds are the checked-in corpus (fuzzSeeds);
	// bare payloads of every record type are added here.
	for _, tc := range recordCases() {
		f.Add(encodeRecord(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkImage(t, data)
		if len(data) > maxJournalRecord {
			return
		}
		for typ := recPut; typ <= recMigrateCommit; typ++ {
			checkPayload(t, typ, data)
			img := append(append([]byte(nil), journalMagic...), frameRecord(7, typ, data)...)
			recs, validLen, torn, err := parseJournal(img)
			if err != nil || len(recs) != 1 || torn != 0 || validLen != int64(len(img)) ||
				recs[0].Seq != 7 || recs[0].Type != typ || !bytes.Equal(recs[0].Payload, data) {
				t.Fatalf("well-framed type-%d record not read back: %d records, validLen %d, torn %d, %v",
					typ, len(recs), validLen, torn, err)
			}
		}
		for _, tc := range recordsFromBytes(data) {
			payload := encodeRecord(tc.body)
			if len(payload) != tc.body.size() {
				t.Fatalf("type %d: encoded %d bytes, size() %d", tc.t, len(payload), tc.body.size())
			}
			got := decoderFor(tc.t)
			if err := decodeRecord(payload, got); err != nil {
				t.Fatalf("type %d: decode(encode(%+v)): %v", tc.t, tc.body, err)
			}
			if !reflect.DeepEqual(deref(got), tc.body) {
				t.Fatalf("type %d round trip\n got %+v\nwant %+v", tc.t, deref(got), tc.body)
			}
		}
	})
}

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzJournalRecords from fuzzSeeds()")

// TestFuzzCorpusIsCurrent keeps the checked-in seed corpus equal to
// fuzzSeeds(), so a change to the record layout cannot silently leave
// stale seeds behind that no longer reach the cases they are named
// for. Regenerate with:
//
//	go test ./internal/store -run TestFuzzCorpusIsCurrent -update-fuzz-corpus
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalRecords")
	for name, img := range fuzzSeeds() {
		path := filepath.Join(dir, "seed-"+name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", img)
		if *updateFuzzCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s is missing or stale (%v); rerun with -update-fuzz-corpus", path, err)
		}
	}
}
