package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// recordCase is one journal payload with the decoder that receives it.
// Cases are written with nil (never empty-but-non-nil) slices and maps,
// which is what the decoders produce, so reflect.DeepEqual compares a
// decoded record with the one that was encoded.
type recordCase struct {
	name  string
	t     recType
	body  recordBody
	fresh func() recordDecoder
}

// encodeRecord returns body's payload in a fresh exact-size buffer (the
// journal itself marshals straight into a pooled record buffer).
func encodeRecord(body recordBody) []byte {
	b := make([]byte, body.size())
	body.marshal(&recWriter{b})
	return b
}

// deref turns the *T a decoder filled into the T a case was built from.
func deref(d recordDecoder) any { return reflect.ValueOf(d).Elem().Interface() }

// recordCases covers all eight record types, each with populated
// fields and with every field empty.
func recordCases() []recordCase {
	newPut := func() recordDecoder { return new(putRecord) }
	newUpdate := func() recordDecoder { return new(updateRecord) }
	newFail := func() recordDecoder { return new(failRecord) }
	newStart := func() recordDecoder { return new(repairStartRecord) }
	newStripe := func() recordDecoder { return new(repairStripeRecord) }
	newDone := func() recordDecoder { return new(repairDoneRecord) }
	newMigrate := func() recordDecoder { return new(migrateRecord) }
	return []recordCase{
		{"put", recPut, putRecord{Name: "clip/7", Segments: []Segment{
			{ID: 0, Important: true, Data: []byte{1, 2, 3}},
			{ID: -4, Data: []byte{9}},
			{ID: 1 << 40, Important: true, Data: nil},
			{ID: 3, Data: bytes.Repeat([]byte{0xC3}, 300)},
		}}, newPut},
		{"put/empty", recPut, putRecord{}, newPut},
		{"put/name-only", recPut, putRecord{Name: "n"}, newPut},
		{"update", recUpdate, updateRecord{Name: "obj", ID: 12, Data: []byte{0xAB, 0xCD}}, newUpdate},
		{"update/empty", recUpdate, updateRecord{}, newUpdate},
		{"update/negative-id", recUpdate, updateRecord{ID: -1}, newUpdate},
		{"fail", recFailNodes, failRecord{Nodes: []int{3, 0, 25}}, newFail},
		{"fail/empty", recFailNodes, failRecord{}, newFail},
		{"repair-start", recRepairStart, repairStartRecord{Failed: []int{7}}, newStart},
		{"repair-start/empty", recRepairStart, repairStartRecord{}, newStart},
		{"repair-stripe", recRepairStripe, repairStripeRecord{
			ID: 1<<63 + 5, Object: "v3", Stripe: 2,
			Cols: map[int][]byte{9: {1, 1, 1, 1}, 2: {7, 8}, 4: nil},
			Sums: map[int]uint32{9: 0xDEADBEEF, 2: 1},
			Lost: []int{11, 5},
		}, newStripe},
		{"repair-stripe/empty", recRepairStripe, repairStripeRecord{}, newStripe},
		{"repair-stripe/sums-only", recRepairStripe, repairStripeRecord{Sums: map[int]uint32{0: 0}}, newStripe},
		{"repair-done", recRepairDone, repairDoneRecord{ID: 42, Unfailed: []int{1, 2}}, newDone},
		{"repair-done/empty", recRepairDone, repairDoneRecord{}, newDone},
		{"migrate-begin", recMigrateBegin, migrateRecord{Name: "a", From: 1, To: 2}, newMigrate},
		{"migrate-commit", recMigrateCommit, migrateRecord{Name: "some/long/name", From: 2, To: 0}, newMigrate},
		{"migrate/empty", recMigrateBegin, migrateRecord{}, newMigrate},
	}
}

// TestRecordRoundTrip: decode(encode(x)) == x for every record type,
// size() is exact, the encoding is canonical (it re-encodes to the same
// bytes), and decoded byte slices alias the payload instead of copying.
func TestRecordRoundTrip(t *testing.T) {
	seen := make(map[recType]bool)
	for _, tc := range recordCases() {
		t.Run(tc.name, func(t *testing.T) {
			seen[tc.t] = true
			payload := encodeRecord(tc.body)
			if len(payload) != tc.body.size() {
				t.Fatalf("encoded %d bytes, size() says %d", len(payload), tc.body.size())
			}
			got := tc.fresh()
			if err := decodeRecord(payload, got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(deref(got), tc.body) {
				t.Fatalf("round trip\n got %+v\nwant %+v", deref(got), tc.body)
			}
			if again := encodeRecord(got.(recordBody)); !bytes.Equal(again, payload) {
				t.Fatalf("re-encoding differs: %x vs %x", again, payload)
			}
			// Every strict prefix and every extension must be refused:
			// a payload is consumed to exactly its last byte.
			for cut := 0; cut < len(payload); cut++ {
				if err := decodeRecord(payload[:cut], tc.fresh()); !errors.Is(err, ErrCorrupted) {
					t.Fatalf("prefix of %d/%d bytes: got %v, want ErrCorrupted", cut, len(payload), err)
				}
			}
			if err := decodeRecord(append(payload[:len(payload):len(payload)], 0), tc.fresh()); !errors.Is(err, ErrCorrupted) {
				t.Fatalf("trailing byte accepted: %v", err)
			}
		})
	}
	for typ := recPut; typ <= recMigrateCommit; typ++ {
		if !seen[typ] {
			t.Errorf("record type %d has no round-trip case", typ)
		}
	}
}

// TestRecordDecodeAliasesPayload pins the zero-copy read side: the
// bulk bytes a decoder returns are windows into the payload it was
// given, capacity-clipped so an append cannot scribble over the next
// field.
func TestRecordDecodeAliasesPayload(t *testing.T) {
	inside := func(p, payload []byte) bool {
		if len(p) == 0 {
			return false
		}
		for i := range payload {
			if &payload[i] == &p[0] {
				return cap(p) == len(p) && i+len(p) <= len(payload)
			}
		}
		return false
	}
	put := putRecord{Name: "o", Segments: []Segment{{ID: 1, Data: []byte{1, 2}}, {ID: 2, Data: []byte{3}}}}
	payload := encodeRecord(put)
	var gotPut putRecord
	if err := decodeRecord(payload, &gotPut); err != nil {
		t.Fatal(err)
	}
	for i, s := range gotPut.Segments {
		if !inside(s.Data, payload) {
			t.Fatalf("put segment %d was copied out of the payload", i)
		}
	}
	payload = encodeRecord(updateRecord{Name: "o", Data: []byte{5, 6, 7}})
	var gotUpd updateRecord
	if err := decodeRecord(payload, &gotUpd); err != nil {
		t.Fatal(err)
	}
	if !inside(gotUpd.Data, payload) {
		t.Fatal("update data was copied out of the payload")
	}
	payload = encodeRecord(repairStripeRecord{Object: "o", Cols: map[int][]byte{1: {1}, 2: {2, 2}}})
	var gotRep repairStripeRecord
	if err := decodeRecord(payload, &gotRep); err != nil {
		t.Fatal(err)
	}
	for ni, c := range gotRep.Cols {
		if !inside(c, payload) {
			t.Fatalf("repair column %d was copied out of the payload", ni)
		}
	}
}

// TestRecordDecodeRejectsHostileLengths: a count or length larger than
// the bytes that follow is refused before anything is sized from it,
// and the non-canonical encodings (a boolean other than 0/1, table rows
// out of ascending order) are refused too.
func TestRecordDecodeRejectsHostileLengths(t *testing.T) {
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name    string
		payload []byte
		into    recordDecoder
	}{
		{"put/4G-segments", cat(le32(0), le32(0xFFFFFFFF)), new(putRecord)},
		{"put/count-past-end", cat(le32(0), le32(2), make([]byte, putSegEntryLen)), new(putRecord)},
		{"put/name-past-end", cat(le32(9), le32(0), []byte("short")), new(putRecord)},
		{"put/segment-past-end", cat(le32(0), le32(1), le64(1), []byte{0}, le32(5), []byte{1, 2}), new(putRecord)},
		{"put/bool-2", cat(le32(0), le32(1), le64(1), []byte{2}, le32(0)), new(putRecord)},
		{"update/data-past-end", cat(le32(0), le64(0), le32(1<<30)), new(updateRecord)},
		{"fail/4G-nodes", le32(0xFFFFFFFF), new(failRecord)},
		{"fail/count-past-end", cat(le32(3), make([]byte, 16)), new(failRecord)},
		{"repair-start/count-past-end", cat(le32(1), make([]byte, 7)), new(repairStartRecord)},
		{"repair-done/4G-nodes", cat(le64(1), le32(0xFFFFFFFF)), new(repairDoneRecord)},
		{"migrate/name-past-end", cat(le32(2), le64(0), le64(1), []byte("x")), new(migrateRecord)},
		{"repair-stripe/4G-cols", cat(le64(1), le64(0), le32(0), le32(0xFFFFFFFF), le32(0), le32(0)), new(repairStripeRecord)},
		{"repair-stripe/col-past-end", cat(le64(1), le64(0), le32(0), le32(1), le32(0), le32(0), le64(3), le32(8), []byte{1}), new(repairStripeRecord)},
		{"repair-stripe/cols-descending", cat(le64(1), le64(0), le32(0), le32(2), le32(0), le32(0), le64(3), le32(0), le64(2), le32(0)), new(repairStripeRecord)},
		{"repair-stripe/sums-duplicate", cat(le64(1), le64(0), le32(0), le32(0), le32(2), le32(0), le64(3), le32(7), le64(3), le32(7)), new(repairStripeRecord)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeRecord(tc.payload, tc.into); !errors.Is(err, ErrCorrupted) {
				t.Fatalf("got %v, want ErrCorrupted (decoded %+v)", err, deref(tc.into))
			}
		})
	}
}
