package netio

import (
	"bytes"
	"errors"
	"testing"

	"approxcode/internal/chaos"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes want %d", len(got), len(want))
		}
	}
}

func TestFrameOversized(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, make([]byte, maxFrame+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized writeFrame: got %v want ErrProtocol", err)
	}
	// A wire header announcing an oversized frame must be rejected
	// before allocating.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized readFrame: got %v want ErrProtocol", err)
	}
}

// batchPayload is a whole msgWriteBatchReq payload, as a receiver's
// readFrame returns it.
func batchPayload(t testing.TB, object string, writes []chaos.ColumnWrite) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, encodeWriteBatchReq(object, writes), columnData(writes)...); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	payload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return payload
}

func TestWriteBatchRoundTrip(t *testing.T) {
	writes := []chaos.ColumnWrite{
		{Node: 7, Stripe: 13, Data: []byte("column payload \x00\x01\x02")},
		{Node: 3, Stripe: 13}, // a tombstone
		{Node: 11, Stripe: 14, Data: []byte("x")},
	}
	payload := batchPayload(t, "videos/a.mp4", writes)
	if msgType(payload[0]) != msgWriteBatchReq {
		t.Fatalf("type byte = 0x%02x", payload[0])
	}
	object, got, err := decodeWriteBatchReq(payload[1:])
	if err != nil || object != "videos/a.mp4" || len(got) != len(writes) {
		t.Fatalf("decodeWriteBatchReq: %q, %d writes, %v", object, len(got), err)
	}
	for i, w := range writes {
		if got[i].Node != w.Node || got[i].Stripe != w.Stripe || !bytes.Equal(got[i].Data, w.Data) {
			t.Fatalf("write %d: %+v, want %+v", i, got[i], w)
		}
	}
	// Trailing bytes are a protocol error, not ignored.
	if _, _, err := decodeWriteBatchReq(append(payload[1:], 0)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("trailing byte: %v", err)
	}

	// Statuses: nil means all landed; otherwise each column keeps its
	// own sentinel.
	if errs, err := decodeWriteBatchResp(encodeWriteBatchResp(3, nil)[1:], 3); err != nil || errs != nil {
		t.Fatalf("all-OK statuses: %v, %v", errs, err)
	}
	sent := []error{nil, chaos.ErrTransient, errors.New("disk on fire")}
	errs, err := decodeWriteBatchResp(encodeWriteBatchResp(3, sent)[1:], 3)
	if err != nil || errs[0] != nil || !errors.Is(errs[1], chaos.ErrTransient) || errs[2] == nil {
		t.Fatalf("statuses: %v, %v", errs, err)
	}
	if _, err := decodeWriteBatchResp(encodeWriteBatchResp(3, sent)[1:], 4); !errors.Is(err, ErrProtocol) {
		t.Fatalf("status count mismatch: %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	payload := batchPayload(t, "obj", []chaos.ColumnWrite{{Node: 7, Stripe: 13, Data: []byte("data")}, {Node: 8, Stripe: 13, Data: []byte("more")}})
	for cut := 1; cut < len(payload); cut++ {
		if _, _, err := decodeWriteBatchReq(payload[1:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	resp := encodeWriteBatchResp(2, []error{nil, chaos.ErrTransient})
	for cut := 1; cut < len(resp); cut++ {
		if _, err := decodeWriteBatchResp(resp[1:cut], 2); err == nil {
			t.Fatalf("status truncation at %d not detected", cut)
		}
	}
}

func TestOpOfPayload(t *testing.T) {
	cases := []struct {
		payload []byte
		want    chaos.Op
		ok      bool
	}{
		{encodeReadReq(3, "obj", 9), chaos.Op{Kind: chaos.OpRead, Node: 3, Object: "obj", Stripe: 9}, true},
		{encodeReadAtReq(1, "x", 2, 64, 128), chaos.Op{Kind: chaos.OpReadAt, Node: 1, Object: "x", Stripe: 2}, true},
		// A write batch is one op per column: the proxy plans it itself.
		{batchPayload(t, "y", []chaos.ColumnWrite{{Node: 0, Stripe: 4, Data: []byte("d")}}), chaos.Op{}, false},
		{newEnc(msgPingReq).b, chaos.Op{}, false},
		{newEnc(msgHeartbeatReq).u64(1).b, chaos.Op{}, false},
		{nil, chaos.Op{}, false},
	}
	for i, tc := range cases {
		got, ok := opOfPayload(tc.payload)
		if ok != tc.ok || got != tc.want {
			t.Fatalf("case %d: got %+v ok=%v, want %+v ok=%v", i, got, ok, tc.want, tc.ok)
		}
	}
}

func TestErrRespMapping(t *testing.T) {
	sentinels := []error{
		chaos.ErrColumnMissing,
		chaos.ErrNodeUnavailable,
		chaos.ErrTransient,
		ErrTimeout,
		ErrInvalid,
	}
	for _, want := range sentinels {
		payload := encodeErrResp(want)
		if msgType(payload[0]) != msgErrResp {
			t.Fatalf("type byte = 0x%02x", payload[0])
		}
		got := decodeErrResp(payload[1:])
		if !errors.Is(got, want) {
			t.Fatalf("sentinel %v did not survive the wire: got %v", want, got)
		}
	}
	// Unknown errors keep their message.
	got := decodeErrResp(encodeErrResp(errors.New("disk on fire"))[1:])
	if got == nil || !errors.Is(got, got) || got.Error() != "netio: remote error: disk on fire" {
		t.Fatalf("internal error mapping: %v", got)
	}
}
