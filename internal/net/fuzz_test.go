package netio

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"approxcode/internal/chaos"
)

// discardWrites serves reads from the embedded backend and drops
// writes, so a long fuzz run does not grow the heap.
type discardWrites struct{ *MemBackend }

func (discardWrites) WriteColumn(int, string, int, []byte) error { return nil }

// FuzzNetioDecode throws arbitrary bytes at every decoder a socket
// feeds — the frame reader, both dispatchers (every request body
// decoder behind them), the proxy's request classifier and every
// response decoder — and requires that none panics or allocates out of
// proportion to its input. The typed arguments drive the other half:
// whatever the encoders produce decodes back to the same values.
func FuzzNetioDecode(f *testing.F) {
	backend := NewMemBackend()
	column := make([]byte, 64)
	for i := range column {
		column[i] = byte(i)
	}
	if err := backend.WriteColumn(1, "obj", 0, column); err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Backend: discardWrites{backend}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	// planBatch is the proxy's decoder of write frames; it needs no
	// listener.
	proxy := &ChaosProxy{inj: chaos.NewInjector(1)}
	master, err := NewMaster(MasterConfig{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = master.Close() })

	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(encodeReadReq(1, "obj", 0)), uint32(1), uint32(0), uint32(0), uint32(64), "obj")
	f.Add(frame(encodeReadAtReq(1, "obj", 0, 8, 16)), uint32(1), uint32(0), uint32(8), uint32(16), "obj")
	f.Add(frame(batchPayload(f, "videos/a", []chaos.ColumnWrite{{Node: 2, Stripe: 3, Data: []byte("column")}, {Node: 6, Stripe: 3}})), uint32(2), uint32(3), uint32(0), uint32(0), "videos/a")
	f.Add(frame(encodeWriteBatchResp(3, []error{nil, chaos.ErrTransient, nil})), uint32(0), uint32(0), uint32(0), uint32(0), "")
	f.Add(frame(encodeErrResp(chaos.ErrTransient)), uint32(0), uint32(0), uint32(0), uint32(0), "")
	f.Add(frame(newEnc(msgRegisterReq).u32(2).u32(4).u32(5).str("10.0.0.1:7000").str("r1").str("z1").b), uint32(0), uint32(0), uint32(0), uint32(0), "")
	f.Add(frame(newEnc(msgNodeMapResp).u32(1).u32(3).u8(0).u64(9).str("a:1").str("r").str("z").b), uint32(0), uint32(0), uint32(0), uint32(0), "")

	f.Fuzz(func(t *testing.T, data []byte, node, stripe, off, n uint32, object string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := readFrame(bytes.NewReader(data))
		if err == nil && len(payload) > 0 {
			opOfPayload(payload)
			srv.dispatch(payload)
			master.dispatch(payload)
			body := payload[1:]
			_ = decodeErrResp(body)
			// A write batch: no more columns than table entries fit in
			// the body, every column a slice of it; a status list of the
			// count the caller expects, or an error.
			if _, ws, err := decodeWriteBatchReq(body); err == nil {
				total := 0
				for _, w := range ws {
					total += len(w.Data)
				}
				if len(ws)*12+total > len(body) {
					t.Fatalf("batch of %d columns, %d bytes out of %d", len(ws), total, len(body))
				}
			}
			if errs, err := decodeWriteBatchResp(body, int(n%8)); err == nil && errs != nil && len(errs) != int(n%8) {
				t.Fatalf("%d statuses for %d columns", len(errs), n%8)
			}
			proxy.planBatch(payload)
			if m, err := decodeNodeMap(newDec(body)); err == nil && len(m)*25 > len(body) {
				t.Fatalf("node map of %d entries out of %d bytes", len(m), len(body))
			}
			if m, err := decodeObjects(newDec(body)); err == nil && len(m)*8 > len(body) {
				t.Fatalf("object map of %d entries out of %d bytes", len(m), len(body))
			}
		}
		runtime.ReadMemStats(&after)
		// One frame buffer (capped by maxFrame, whatever the header
		// claims) plus work proportional to the input; the constant
		// covers a registration's node slice and the fuzz worker itself.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxFrame+64*len(data)+(2<<20)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}

		// Round trips: encode → frame → unframe → decode. Read requests
		// are decoded inside the server's handlers, so theirs goes all
		// the way: the range that comes back is the range encoded.
		unframe := func(payload []byte) []byte {
			got, err := readFrame(bytes.NewReader(frame(payload)))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("frame round trip: %v", err)
			}
			return got
		}
		want := chaos.Op{Kind: chaos.OpRead, Node: int(node), Object: object, Stripe: int(stripe)}
		if got, ok := opOfPayload(unframe(encodeReadReq(want.Node, object, want.Stripe))); !ok || got != want {
			t.Fatalf("read request: %+v, want %+v", got, want)
		}
		want.Kind = chaos.OpReadAt
		if got, ok := opOfPayload(unframe(encodeReadAtReq(want.Node, object, want.Stripe, int(off), int(n)))); !ok || got != want {
			t.Fatalf("readat request: %+v, want %+v", got, want)
		}
		off, n = off%64, n%64
		resp := srv.dispatch(unframe(encodeReadAtReq(1, "obj", 0, int(off), int(n))))
		if off+n <= 64 {
			if msgType(resp.head[0]) != msgDataResp || len(resp.head) != 1 || !bytes.Equal(resp.data, column[off:off+n]) {
				t.Fatalf("readat [%d,+%d) answered type 0x%02x, %d bytes", off, n, resp.head[0], len(resp.data))
			}
		} else if err := decodeErrResp(resp.head[1:]); msgType(resp.head[0]) != msgErrResp || !errors.Is(err, ErrInvalid) {
			t.Fatalf("readat [%d,+%d) past the column: type 0x%02x, %v", off, n, resp.head[0], err)
		}
		// A batch of the fuzzed column, a tombstone and the column's
		// first half survives the frame and gets one status per column
		// from the server.
		sent := []chaos.ColumnWrite{{Node: int(node), Stripe: int(stripe), Data: data}, {Node: 1, Stripe: 2}, {Node: 3, Stripe: int(stripe), Data: data[:len(data)/2]}}
		batch := batchPayload(t, object, sent)
		gotObject, got, err := decodeWriteBatchReq(batch[1:])
		if err != nil || gotObject != object || len(got) != len(sent) {
			t.Fatalf("write batch: %q, %d columns, %v", gotObject, len(got), err)
		}
		for i, w := range sent {
			if got[i].Node != w.Node || got[i].Stripe != w.Stripe || !bytes.Equal(got[i].Data, w.Data) {
				t.Fatalf("write batch column %d: %+v", i, got[i])
			}
		}
		resp = srv.dispatch(batch)
		if errs, err := decodeWriteBatchResp(resp.head[1:], len(sent)); msgType(resp.head[0]) != msgWriteBatchResp || err != nil || errs != nil {
			t.Fatalf("write batch answered type 0x%02x, %v, %v", resp.head[0], errs, err)
		}
		sentinels := []error{chaos.ErrNodeUnavailable, chaos.ErrColumnMissing, chaos.ErrTransient, ErrTimeout, ErrInvalid}
		sentinel := sentinels[int(node)%len(sentinels)]
		if got := decodeErrResp(unframe(encodeErrResp(sentinel))[1:]); !errors.Is(got, sentinel) {
			t.Fatalf("error response: %v, want %v", got, sentinel)
		}
	})
}
