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
	"net"

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
	msgPingReq   msgType = 0x04 // empty
	// str object, u32 n, n×(u32 node, u32 stripe, u32 len), then the n
	// columns back to back; len 0 deletes the column. (0x03 was the
	// single-column write this replaced.)
	msgWriteBatchReq msgType = 0x05

	// Control plane (master).
	msgRegisterReq  msgType = 0x10 // u32 n, n×u32 nodes, str addr [, str rack, str zone]
	msgHeartbeatReq msgType = 0x11 // u64 incarnation
	msgNodeMapReq   msgType = 0x12 // empty
	msgReportObjReq msgType = 0x13 // str name, u32 stripes
	msgListObjReq   msgType = 0x14 // empty

	msgDataResp       msgType = 0x81 // raw column/range bytes
	msgOKResp         msgType = 0x82 // empty
	msgErrResp        msgType = 0x83 // u8 code, str message
	msgWriteBatchResp msgType = 0x84 // u32 n, n×(u8 code [, str message when code != 0])
	msgRegisterResp   msgType = 0x90 // u64 incarnation
	msgHeartbeatResp  msgType = 0x91 // u8 status (0 ok, 1 unknown — re-register)
	msgNodeMapResp    msgType = 0x92 // u32 n, n×(u32 node, u8 state, u64 inc, str addr, str rack, str zone)
	msgObjectsResp    msgType = 0x93 // u32 n, n×(str name, u32 stripes)
)

// Error codes carried by msgErrResp, mapping the fault taxonomy across
// the wire so errors.Is keeps working end to end.
const (
	codeOK          uint8 = 0 // msgWriteBatchResp only: the column landed
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

// writeFrame writes one length-prefixed frame whose payload is head
// followed by the bulk slices. Nothing is copied: on a socket the length
// prefix, head and bulk go out as one writev, so a concurrent close
// cannot tear the frame boundary and a column crosses this function
// without being allocated again.
func writeFrame(w io.Writer, head []byte, bulk ...[]byte) error {
	n := len(head)
	for _, b := range bulk {
		n += len(b)
	}
	if n > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	bufs := make(net.Buffers, 0, 2+len(bulk))
	bufs = append(bufs, binary.BigEndian.AppendUint32(nil, uint32(n)), head)
	for _, b := range bulk {
		if len(b) > 0 {
			bufs = append(bufs, b)
		}
	}
	_, err := bufs.WriteTo(w)
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

func newEnc(t msgType) *enc      { return &enc{b: []byte{byte(t)}} }
func (e *enc) u8(v uint8) *enc   { e.b = append(e.b, v); return e }
func (e *enc) u32(v uint32) *enc { e.b = binary.BigEndian.AppendUint32(e.b, v); return e }
func (e *enc) u64(v uint64) *enc { e.b = binary.BigEndian.AppendUint64(e.b, v); return e }
func (e *enc) str(s string) *enc { e.u32(uint32(len(s))); e.b = append(e.b, s...); return e }

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

// Request encoders.

func encodeReadReq(node int, object string, stripe int) []byte {
	return newEnc(msgReadReq).u32(uint32(node)).u32(uint32(stripe)).str(object).b
}

func encodeReadAtReq(node int, object string, stripe, off, n int) []byte {
	return newEnc(msgReadAtReq).u32(uint32(node)).u32(uint32(stripe)).
		u32(uint32(off)).u32(uint32(n)).str(object).b
}

// encodeWriteBatchReq returns the head of a msgWriteBatchReq; the frame
// is this followed by each write's Data, which writeFrame sends from
// where it lies.
func encodeWriteBatchReq(object string, writes []chaos.ColumnWrite) []byte {
	e := newEnc(msgWriteBatchReq).str(object).u32(uint32(len(writes)))
	for _, w := range writes {
		e.u32(uint32(w.Node)).u32(uint32(w.Stripe)).u32(uint32(len(w.Data)))
	}
	return e.b
}

// columnData lists the writes' payloads in order, writeFrame's bulk.
func columnData(writes []chaos.ColumnWrite) [][]byte {
	bulk := make([][]byte, len(writes))
	for i, w := range writes {
		bulk[i] = w.Data
	}
	return bulk
}

// decodeWriteBatchReq decodes a msgWriteBatchReq body. Each Data aliases
// the frame buffer; nothing is allocated from an announced count or
// length before the bytes it describes are known to be there.
func decodeWriteBatchReq(body []byte) (object string, writes []chaos.ColumnWrite, err error) {
	d := newDec(body)
	object = d.str()
	n := int(d.u32())
	if d.err != nil || n < 0 || n > d.remaining()/12 {
		d.fail()
		return "", nil, d.err
	}
	writes = make([]chaos.ColumnWrite, n)
	data := body[d.off+12*n:] // the columns, behind the n table entries
	for i := range writes {
		w := &writes[i]
		w.Node, w.Stripe = int(d.u32()), int(d.u32())
		l := int(d.u32())
		if l < 0 || l > len(data) {
			d.fail()
			return "", nil, d.err
		}
		if l > 0 {
			w.Data, data = data[:l], data[l:]
		}
	}
	if len(data) != 0 {
		return "", nil, fmt.Errorf("%w: %d bytes after the last column", ErrProtocol, len(data))
	}
	return object, writes, nil
}

// encodeWriteBatchResp encodes one status per column; nil errs means
// every column landed.
func encodeWriteBatchResp(n int, errs []error) []byte {
	e := newEnc(msgWriteBatchResp).u32(uint32(n))
	for i := 0; i < n; i++ {
		if err := chaos.ErrAt(errs, i); err != nil {
			e.u8(errCode(err)).str(err.Error())
		} else {
			e.u8(codeOK)
		}
	}
	return e.b
}

// decodeWriteBatchResp decodes the statuses of a batch of want columns:
// nil when all landed, else one entry per column.
func decodeWriteBatchResp(body []byte, want int) ([]error, error) {
	d := newDec(body)
	if n := int(d.u32()); d.err == nil && n != want {
		return nil, fmt.Errorf("%w: %d statuses for %d columns", ErrProtocol, n, want)
	}
	var errs []error
	for i := 0; i < want; i++ {
		code := d.u8()
		if code == codeOK {
			continue
		}
		if errs == nil {
			errs = make([]error, want)
		}
		errs[i] = errOfCode(code, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	return errs, nil
}

// opOfPayload maps a decoded request frame to the chaos.Op it
// represents, so a transport-level injector evaluates the same schedule
// the in-process injector would. Control-plane and unknown frames
// return ok=false (they pass through uninjected; pings too — a health
// probe models the operator, not the workload), and so does a write
// batch, which is one op per column (see ChaosProxy.planBatch).
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
	default:
		return chaos.Op{}, false
	}
}

// errCode maps an error to its wire code.
func errCode(err error) uint8 {
	switch {
	case errors.Is(err, chaos.ErrColumnMissing):
		return codeMissing
	case errors.Is(err, chaos.ErrNodeUnavailable):
		return codeUnavailable
	case errors.Is(err, chaos.ErrTransient):
		return codeTransient
	case errors.Is(err, ErrTimeout):
		return codeTimeout
	case errors.Is(err, ErrInvalid):
		return codeInvalid
	}
	return codeInternal
}

// errOfCode maps a wire code back to the sentinel taxonomy. The
// original message rides along for diagnostics.
func errOfCode(code uint8, msg string) error {
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

// encodeErrResp maps an error to its wire form.
func encodeErrResp(err error) []byte {
	return newEnc(msgErrResp).u8(errCode(err)).str(err.Error()).b
}

// decodeErrResp decodes a msgErrResp body into the error it carries.
func decodeErrResp(body []byte) error {
	d := newDec(body)
	code := d.u8()
	msg := d.str()
	if d.err != nil {
		return d.err
	}
	return errOfCode(code, msg)
}
