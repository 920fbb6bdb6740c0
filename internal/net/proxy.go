package netio

import (
	"errors"
	"net"
	"sync"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// ChaosProxy is a frame-aware TCP proxy that sits between a client and
// one DataNode (or the master) and injects the chaos.Injector fault
// vocabulary into live connections. It decodes each request frame into
// the chaos.Op it represents and asks the injector's schedule for a
// Decision — the exact code path the in-process injector runs — then
// translates the decision into transport-level sabotage:
//
//   - crash: the client's connection is dropped mid-request, like a
//     DataNode process dying under the op.
//   - partition (per-rule or whole-proxy via SetPartitioned): the
//     request is read and silently discarded; the node is alive but
//     unreachable, and the client burns its deadline.
//   - transient: an error response is synthesized without the request
//     ever reaching the DataNode.
//   - latency: the forward is delayed.
//   - corrupt: response payload bytes are flipped for reads; the
//     written payload is flipped for writes (the DataNode stores the
//     damage, as a bad disk would).
//   - torn: a write's payload is truncated before forwarding.
//
// A write frame is a batch of columns and each column is one op: the
// schedule is asked about them in frame order, exactly the sequence of
// decisions the same columns written one by one would draw. Corrupt and
// torn rewrite that column's bytes and a transient error answers for
// that column alone (the others are forwarded); a crash or partition
// decision on any column takes the whole frame — the connection carries
// them all — and latencies add up.
//
// Control-plane and unknown frames pass through untouched unless the
// proxy is partitioned, so the same proxy can front a DataNode's
// heartbeat path when a test needs to cut a node off from the master.
type ChaosProxy struct {
	inj    *chaos.Injector
	target string
	ln     net.Listener

	mu          sync.Mutex
	partitioned bool
	closed      bool
	conns       connSet

	wg sync.WaitGroup

	forwarded *obs.Counter
	swallowed *obs.Counter
	dropped   *obs.Counter
}

// NewChaosProxy binds listen (use "127.0.0.1:0") and proxies to target
// through the injector. A nil injector forwards everything verbatim.
func NewChaosProxy(listen, target string, inj *chaos.Injector, reg *obs.Registry) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, &BindError{Role: "chaos-proxy", Addr: listen, Err: err}
	}
	p := &ChaosProxy{inj: inj, target: target, ln: ln}
	if reg != nil {
		p.forwarded = reg.Counter("netio_proxy_forwarded_total")
		p.swallowed = reg.Counter("netio_proxy_swallowed_total")
		p.dropped = reg.Counter("netio_proxy_dropped_conns_total")
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's client-facing address.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// SetPartitioned cuts (true) or heals (false) the whole proxy: while
// partitioned every inbound frame is swallowed — connections stay open,
// nothing is answered. Unlike killing the proxy, the TCP peer sees a
// live but silent endpoint, which is what a network partition looks
// like.
func (p *ChaosProxy) SetPartitioned(v bool) {
	p.mu.Lock()
	p.partitioned = v
	p.mu.Unlock()
}

func (p *ChaosProxy) isPartitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitioned
}

// Close stops the proxy and drops all its connections.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.conns.closeAll()
	p.wg.Wait()
	return err
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.conns.add(conn) {
			_ = conn.Close()
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.conns.remove(conn)
			defer conn.Close()
			p.serveConn(conn)
		}()
	}
}

func (p *ChaosProxy) serveConn(client net.Conn) {
	// One upstream connection per client connection, dialed lazily so a
	// partitioned proxy accepts clients without touching the target.
	var upstream net.Conn
	defer func() {
		if upstream != nil {
			_ = upstream.Close()
		}
	}()
	dialUpstream := func() bool {
		if upstream != nil {
			return true
		}
		conn, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			return false
		}
		if !p.conns.add(conn) {
			_ = conn.Close()
			return false
		}
		upstream = conn
		return true
	}
	defer func() {
		if upstream != nil {
			p.conns.remove(upstream)
		}
	}()

	for {
		req, err := readFrame(client)
		if err != nil {
			return
		}
		if p.isPartitioned() {
			p.swallowed.Inc()
			continue
		}
		var b *batchPlan
		var bulk [][]byte // what follows req in the forwarded frame
		op, isData := opOfPayload(req)
		var d chaos.Decision
		if p.inj != nil {
			if isData {
				d = p.inj.Decide(op)
			} else if b = p.planBatch(req); b != nil {
				d, req, bulk = b.frame, b.head, b.bulk
			}
		}
		if d.Partitioned {
			p.swallowed.Inc()
			continue
		}
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Err != nil {
			if errors.Is(d.Err, chaos.ErrNodeUnavailable) {
				// Crash: the process died under the op — cut the client
				// off without a response.
				p.dropped.Inc()
				return
			}
			// Transient: answer with the injected error; the DataNode
			// never sees the request.
			if writeFrame(client, encodeErrResp(d.Err)) != nil {
				return
			}
			continue
		}
		var resp []byte
		if req != nil {
			if !dialUpstream() {
				// Target gone: same as a crashed node.
				p.dropped.Inc()
				return
			}
			if writeFrame(upstream, req, bulk...) != nil {
				p.dropped.Inc()
				return
			}
			if resp, err = readFrame(upstream); err != nil {
				p.dropped.Inc()
				return
			}
		}
		if isData && d.CorruptBytes > 0 {
			resp = p.corruptDataResp(resp, d.CorruptBytes)
		}
		if b != nil {
			resp = b.mergeResp(resp)
		}
		if writeFrame(client, resp) != nil {
			return
		}
		p.forwarded.Inc()
	}
}

// batchPlan is the injector's verdict on one write frame.
type batchPlan struct {
	// frame is the part that applies to the frame as a whole: the first
	// crash or partition among the columns, the summed latency.
	frame chaos.Decision
	// head and bulk are the frame to send on — the columns without an
	// injected error, torn and corrupt ones rewritten; head is nil when
	// no column is left.
	head []byte
	bulk [][]byte
	// injected[i] is column i's injected error, nil for a forwarded
	// column.
	injected []error
}

// planBatch decides every column of a write frame, in order. It returns
// nil for anything that is not a decodable write batch, which is then
// forwarded as it is.
func (p *ChaosProxy) planBatch(req []byte) *batchPlan {
	if len(req) == 0 || msgType(req[0]) != msgWriteBatchReq {
		return nil
	}
	object, writes, err := decodeWriteBatchReq(req[1:])
	if err != nil {
		return nil
	}
	b := &batchPlan{injected: make([]error, len(writes))}
	kept := make([]chaos.ColumnWrite, 0, len(writes))
	for i, w := range writes {
		d := p.inj.Decide(chaos.Op{Kind: chaos.OpWrite, Node: w.Node, Object: object, Stripe: w.Stripe})
		b.frame.Delay += d.Delay
		switch {
		case d.Partitioned:
			b.frame.Partitioned = true
		case errors.Is(d.Err, chaos.ErrNodeUnavailable):
			if b.frame.Err == nil {
				b.frame.Err = d.Err
			}
		case d.Err != nil:
			b.injected[i] = d.Err
		default:
			if d.Torn {
				keep := min(max(int(float64(len(w.Data))*d.KeepFraction), 0), len(w.Data))
				w.Data = w.Data[:keep]
			}
			if d.CorruptBytes > 0 {
				w.Data = p.inj.CorruptCopy(w.Data, d.CorruptBytes)
			}
			kept = append(kept, w)
		}
	}
	if len(kept) > 0 {
		b.head, b.bulk = encodeWriteBatchReq(object, kept), columnData(kept)
	}
	return b
}

// mergeResp builds the client's answer: the DataNode's statuses for the
// forwarded columns (resp; nil when none was forwarded) with the
// injected errors back in their places. A response that is not a batch
// status list (the DataNode refused the frame) passes through.
func (b *batchPlan) mergeResp(resp []byte) []byte {
	forwarded := 0
	for _, err := range b.injected {
		if err == nil {
			forwarded++
		}
	}
	var statuses []error
	if resp != nil {
		if len(resp) == 0 || msgType(resp[0]) != msgWriteBatchResp {
			return resp
		}
		var err error
		if statuses, err = decodeWriteBatchResp(resp[1:], forwarded); err != nil {
			return resp
		}
	}
	merged := make([]error, len(b.injected))
	next := 0
	for i, err := range b.injected {
		if err != nil {
			merged[i] = err
			continue
		}
		merged[i] = chaos.ErrAt(statuses, next)
		next++
	}
	return encodeWriteBatchResp(len(merged), merged)
}

// corruptDataResp flips bytes in a data response's payload. Error
// responses pass through untouched — only data can rot.
func (p *ChaosProxy) corruptDataResp(resp []byte, n int) []byte {
	if len(resp) == 0 || msgType(resp[0]) != msgDataResp {
		return resp
	}
	body := p.inj.CorruptCopy(resp[1:], n)
	return append([]byte{resp[0]}, body...)
}
