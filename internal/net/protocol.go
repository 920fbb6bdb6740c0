// Package netio turns the storage engine into a networked
// NameNode/DataNode deployment: a DataNode server exposing the
// chaos.NodeIO surface (whole-column and partial-column reads, column
// writes, health probes) over a length-prefixed binary protocol on TCP,
// a master (NameNode) tracking placement, object stripe maps, and node
// liveness via heartbeats with a suspect → dead failure detector, and a
// client SDK implementing chaos.NodeIO + PartialReader + CtxIO so a
// store.Store works against live sockets by setting Config.Backend.
//
// The client is the stack's one retry/backoff/hedged-read/health
// wrapper (internal/resilience) over a socket transport: per-op
// deadlines travel as contexts down to connection deadlines, connection
// pools redial with jittered backoff behind a fail-fast circuit, and a
// down DataNode degrades into planned degraded reads (PR 7) instead of
// client-visible errors.
//
// Transport framing is deliberately checksum-free for data payloads:
// column integrity is end-to-end (the store's CRC-32C per column and
// sub-block), so silent wire corruption — injected by the chaos proxy
// or real — is detected exactly where the in-process stack detects it,
// and the whole TestChaos* invariant suite re-runs unchanged against
// live TCP.
package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"approxcode/internal/chaos"
)

// A frame on the wire is | u32 big-endian payload length | payload |,
// where the payload is | u8 message type | body |. Every request frame
// is answered by exactly one response frame on the same connection
// (synchronous per connection; concurrency comes from pooling).
const (
	// maxFrame bounds a frame payload; a peer announcing more is
	// protocol-corrupt and the connection is dropped.
	maxFrame = 64 << 20
)

type msgType uint8

// Message types. Requests are < 0x80, responses >= 0x80.
const (
	// Data plane (DataNode).
	msgReadReq   msgType = 0x01 // u32 node, u32 stripe, str object
	msgReadAtReq msgType = 0x02 // u32 node, u32 stripe, u32 off, u32 n, str object
	msgWriteReq  msgType = 0x03 // u32 node, u32 stripe, str object, u32 len, data
	msgPingReq   msgType = 0x04 // empty

	// Control plane (master).
	msgRegisterReq  msgType = 0x10 // u32 n, n×u32 nodes, str addr [, str rack, str zone]
	msgHeartbeatReq msgType = 0x11 // u64 incarnation
	msgNodeMapReq   msgType = 0x12 // empty
	msgReportObjReq msgType = 0x13 // str name, u32 stripes
	msgListObjReq   msgType = 0x14 // empty

	msgDataResp      msgType = 0x81 // raw column/range bytes
	msgOKResp        msgType = 0x82 // empty
	msgErrResp       msgType = 0x83 // u8 code, str message
	msgRegisterResp  msgType = 0x90 // u64 incarnation
	msgHeartbeatResp msgType = 0x91 // u8 status (0 ok, 1 unknown — re-register)
	msgNodeMapResp   msgType = 0x92 // u32 n, n×(u32 node, u8 state, u64 inc, str addr, str rack, str zone)
	msgObjectsResp   msgType = 0x93 // u32 n, n×(str name, u32 stripes)
)

// Error codes carried by msgErrResp, mapping the fault taxonomy across
// the wire so errors.Is keeps working end to end.
const (
	codeUnavailable uint8 = 1 // chaos.ErrNodeUnavailable
	codeMissing     uint8 = 2 // chaos.ErrColumnMissing
	codeTransient   uint8 = 3 // chaos.ErrTransient
	codeTimeout     uint8 = 4 // chaos.ErrTimeout
	codeInvalid     uint8 = 5 // chaos.ErrInvalid
	codeInternal    uint8 = 6 // anything else; message preserved
)

// Sentinel errors of the network layer. ErrTimeout and ErrInvalid are
// the NodeIO contract's own values (wire codes 4 and 5 decode to
// them), so errors.Is gives one answer whether a store runs over this
// client or in process.
var (
	// ErrTimeout: an RPC exceeded its deadline (also wraps the context
	// error, so errors.Is(err, context.DeadlineExceeded) holds where the
	// deadline came from a context). Alias of chaos.ErrTimeout.
	ErrTimeout = chaos.ErrTimeout
	// ErrInvalid: a malformed request or argument. Alias of
	// chaos.ErrInvalid.
	ErrInvalid = chaos.ErrInvalid
	// ErrProtocol: a malformed or oversized frame; the connection is
	// poisoned and must be dropped.
	ErrProtocol = errors.New("netio: protocol error")
	// ErrClosed: the component has been Close()d.
	ErrClosed = errors.New("netio: closed")
)

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	// One writev-friendly write: header and payload go out together so
	// a concurrent close cannot tear the frame boundary.
	buf := make([]byte, 0, 4+len(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// enc is an append-only payload encoder.
type enc struct{ b []byte }

func newEnc(t msgType) *enc        { return &enc{b: []byte{byte(t)}} }
func (e *enc) u8(v uint8) *enc     { e.b = append(e.b, v); return e }
func (e *enc) u32(v uint32) *enc   { e.b = binary.BigEndian.AppendUint32(e.b, v); return e }
func (e *enc) u64(v uint64) *enc   { e.b = binary.BigEndian.AppendUint64(e.b, v); return e }
func (e *enc) str(s string) *enc   { e.u32(uint32(len(s))); e.b = append(e.b, s...); return e }
func (e *enc) bytes(p []byte) *enc { e.u32(uint32(len(p))); e.b = append(e.b, p...); return e }

// dec is a cursor-based payload decoder; the first decode error sticks
// and zero values flow from then on, so call sites check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func newDec(b []byte) *dec { return &dec{b: b} }

// remaining reports undecoded bytes — the back-compat probe for
// optional trailing fields (a pre-topology register request simply
// ends before the rack/zone labels).
func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated message", ErrProtocol)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Request encoders.

func encodeReadReq(node int, object string, stripe int) []byte {
	return newEnc(msgReadReq).u32(uint32(node)).u32(uint32(stripe)).str(object).b
}

func encodeReadAtReq(node int, object string, stripe, off, n int) []byte {
	return newEnc(msgReadAtReq).u32(uint32(node)).u32(uint32(stripe)).
		u32(uint32(off)).u32(uint32(n)).str(object).b
}

func encodeWriteReq(node int, object string, stripe int, data []byte) []byte {
	return newEnc(msgWriteReq).u32(uint32(node)).u32(uint32(stripe)).str(object).bytes(data).b
}

// writeReq is a decoded msgWriteReq (the chaos proxy rewrites these for
// torn and corrupt injections; data aliases the frame buffer).
type writeReq struct {
	node, stripe int
	object       string
	data         []byte
}

func decodeWriteReq(body []byte) (writeReq, error) {
	d := newDec(body)
	r := writeReq{node: int(d.u32()), stripe: int(d.u32())}
	r.object = d.str()
	r.data = d.bytes()
	return r, d.err
}

// opOfPayload maps a decoded request frame to the chaos.Op it
// represents, so a transport-level injector evaluates the same schedule
// the in-process injector would. Control-plane and unknown frames
// return ok=false (they pass through uninjected; pings too — a health
// probe models the operator, not the workload).
func opOfPayload(payload []byte) (chaos.Op, bool) {
	if len(payload) == 0 {
		return chaos.Op{}, false
	}
	d := newDec(payload[1:])
	switch msgType(payload[0]) {
	case msgReadReq:
		op := chaos.Op{Kind: chaos.OpRead, Node: int(d.u32()), Stripe: int(d.u32())}
		op.Object = d.str()
		return op, d.err == nil
	case msgReadAtReq:
		op := chaos.Op{Kind: chaos.OpReadAt, Node: int(d.u32()), Stripe: int(d.u32())}
		d.u32() // off
		d.u32() // n
		op.Object = d.str()
		return op, d.err == nil
	case msgWriteReq:
		op := chaos.Op{Kind: chaos.OpWrite, Node: int(d.u32()), Stripe: int(d.u32())}
		op.Object = d.str()
		return op, d.err == nil
	default:
		return chaos.Op{}, false
	}
}

// encodeErrResp maps an error to its wire form.
func encodeErrResp(err error) []byte {
	code := codeInternal
	switch {
	case errors.Is(err, chaos.ErrColumnMissing):
		code = codeMissing
	case errors.Is(err, chaos.ErrNodeUnavailable):
		code = codeUnavailable
	case errors.Is(err, chaos.ErrTransient):
		code = codeTransient
	case errors.Is(err, ErrTimeout):
		code = codeTimeout
	case errors.Is(err, ErrInvalid):
		code = codeInvalid
	}
	return newEnc(msgErrResp).u8(code).str(err.Error()).b
}

// decodeErrResp maps a wire error back to the sentinel taxonomy. The
// original message rides along for diagnostics.
func decodeErrResp(body []byte) error {
	d := newDec(body)
	code := d.u8()
	msg := d.str()
	if d.err != nil {
		return d.err
	}
	switch code {
	case codeMissing:
		return fmt.Errorf("%w (remote: %s)", chaos.ErrColumnMissing, msg)
	case codeUnavailable:
		return fmt.Errorf("%w (remote: %s)", chaos.ErrNodeUnavailable, msg)
	case codeTransient:
		return fmt.Errorf("%w (remote: %s)", chaos.ErrTransient, msg)
	case codeTimeout:
		return fmt.Errorf("%w (remote: %s)", ErrTimeout, msg)
	case codeInvalid:
		return fmt.Errorf("%w (remote: %s)", ErrInvalid, msg)
	default:
		return fmt.Errorf("netio: remote error: %s", msg)
	}
}
