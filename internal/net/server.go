package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// Server is a DataNode: it exposes a chaos.NodeIO backend over the
// frame protocol and, when a master is configured, maintains a
// registration + heartbeat lease for the node indexes it serves.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	m   serverMetrics

	mu     sync.Mutex
	closed bool
	conns  connSet

	stop chan struct{}
	wg   sync.WaitGroup
}

// ServerConfig configures a DataNode server.
type ServerConfig struct {
	// Listen is the TCP address to bind ("127.0.0.1:0" if empty).
	Listen string
	// Advertise is the address registered with the master; defaults to
	// the bound listen address. Point it at a fronting proxy to route
	// master-directed clients through it.
	Advertise string
	// Backend serves the columns. Required.
	Backend chaos.NodeIO
	// Nodes are the node indexes this DataNode serves; required when a
	// Master is configured (that is what gets registered).
	Nodes []int
	// Master is the optional control-plane address. Empty disables
	// registration and heartbeats (static-map deployments).
	Master string
	// Heartbeat is the heartbeat period (default 500ms). Keep it equal
	// to the master's LivenessPolicy.Interval.
	Heartbeat time.Duration
	// Rack and Zone are the failure-domain labels this DataNode
	// registers under (apprnode data -rack/-zone). Empty labels
	// reproduce the pre-topology registration.
	Rack string
	Zone string
	// Obs receives per-RPC server metrics (nil disables).
	Obs *obs.Registry
}

// NewServer binds the listener, starts serving, and (with a Master
// configured) starts the registration/heartbeat loop. A bind failure is
// a typed *BindError; nothing is left running.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("%w: server requires a backend", ErrInvalid)
	}
	if cfg.Master != "" && len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%w: master registration requires node indexes", ErrInvalid)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, &BindError{Role: "datanode", Addr: cfg.Listen, Err: err}
	}
	if cfg.Advertise == "" {
		cfg.Advertise = ln.Addr().String()
	}
	s := &Server{
		cfg:  cfg,
		ln:   ln,
		m:    newServerMetrics(cfg.Obs),
		stop: make(chan struct{}),
	}
	if sc, ok := cfg.Backend.(interface{ Syncs() int64 }); ok {
		cfg.Obs.GaugeFunc("netio_backend_syncs_total", sc.Syncs)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.Master != "" {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// Addr returns the bound data-plane address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. In-flight requests are cut off (connection
// close), matching a process kill as far as clients can tell.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	err := s.ln.Close()
	s.conns.closeAll()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.conns.add(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.remove(conn)
			defer conn.Close()
			s.m.conns.Add(1)
			defer s.m.conns.Add(-1)
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		// Idle pooled connections park here without a deadline; the
		// client pool owns connection lifetime.
		payload, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				s.m.badFrames.Inc()
			}
			return
		}
		resp := s.dispatch(payload)
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := writeFrame(conn, resp.head, resp.data); err != nil {
			return
		}
		_ = conn.SetWriteDeadline(time.Time{})
	}
}

// reply is a response payload: head, then — for a data response — the
// backend's buffer, which goes to the socket from where it lies.
type reply struct{ head, data []byte }

func errReply(err error) reply { return reply{head: encodeErrResp(err)} }

func (s *Server) dispatch(payload []byte) reply {
	if len(payload) == 0 {
		s.m.badFrames.Inc()
		return errReply(fmt.Errorf("%w: empty payload", ErrProtocol))
	}
	body := payload[1:]
	switch msgType(payload[0]) {
	case msgReadReq:
		return s.handleRead(body)
	case msgReadAtReq:
		return s.handleReadAt(body)
	case msgWriteBatchReq:
		return s.handleWriteBatch(body)
	case msgPingReq:
		t0 := time.Now()
		s.m.ping.total.Inc()
		s.m.ping.seconds.Observe(time.Since(t0))
		return reply{head: newEnc(msgOKResp).b}
	default:
		s.m.badFrames.Inc()
		return errReply(fmt.Errorf("%w: unexpected message type 0x%02x", ErrInvalid, payload[0]))
	}
}

func (s *Server) handleRead(body []byte) reply {
	t0 := time.Now()
	s.m.read.total.Inc()
	d := newDec(body)
	node := int(d.u32())
	stripe := int(d.u32())
	object := d.str()
	if d.err != nil {
		s.m.read.errors.Inc()
		return errReply(d.err)
	}
	data, err := s.cfg.Backend.ReadColumn(node, object, stripe)
	s.m.read.seconds.Observe(time.Since(t0))
	if err != nil {
		s.m.read.errors.Inc()
		return errReply(err)
	}
	s.m.read.bytes.Add(int64(len(data)))
	return reply{head: newEnc(msgDataResp).b, data: data}
}

func (s *Server) handleReadAt(body []byte) reply {
	t0 := time.Now()
	s.m.readAt.total.Inc()
	d := newDec(body)
	node := int(d.u32())
	stripe := int(d.u32())
	offU := d.u32()
	nU := d.u32()
	object := d.str()
	if d.err != nil {
		s.m.readAt.errors.Inc()
		return errReply(d.err)
	}
	// Reject wire values that don't fit the platform int (or whose sum
	// doesn't) before converting: on 32-bit a malformed request could
	// otherwise wrap off+n negative, bypass the bounds check below, and
	// panic the DataNode on the slice expression.
	const maxInt = int64(^uint(0) >> 1)
	if int64(offU) > maxInt || int64(nU) > maxInt || int64(offU)+int64(nU) > maxInt {
		s.m.readAt.errors.Inc()
		return errReply(fmt.Errorf("%w: range [%d,%d) exceeds platform limits",
			ErrInvalid, offU, int64(offU)+int64(nU)))
	}
	off, n := int(offU), int(nU)
	var data []byte
	var err error
	if pr, ok := s.cfg.Backend.(chaos.PartialReader); ok {
		data, err = pr.ReadColumnAt(node, object, stripe, off, n)
	} else {
		// Backend without partial reads: read the column, slice the
		// range server-side so only the range crosses the wire.
		var col []byte
		col, err = s.cfg.Backend.ReadColumn(node, object, stripe)
		if err == nil {
			if off < 0 || n < 0 || off+n > len(col) {
				err = fmt.Errorf("%w: range [%d,%d) outside column of %d bytes",
					ErrInvalid, off, off+n, len(col))
			} else {
				data = col[off : off+n]
			}
		}
	}
	s.m.readAt.seconds.Observe(time.Since(t0))
	if err != nil {
		s.m.readAt.errors.Inc()
		return errReply(err)
	}
	s.m.readAt.bytes.Add(int64(len(data)))
	return reply{head: newEnc(msgDataResp).b, data: data}
}

// handleWriteBatch hands the frame's columns to the backend in one call
// when it takes batches (a FileBackend commits them with one sync), and
// one by one otherwise. Either way each column gets its own status.
func (s *Server) handleWriteBatch(body []byte) reply {
	t0 := time.Now()
	s.m.writeBatches.Inc()
	object, writes, err := decodeWriteBatchReq(body)
	if err != nil {
		s.m.write.errors.Inc()
		return errReply(err)
	}
	s.m.write.total.Add(int64(len(writes)))
	var errs []error
	if bw, ok := s.cfg.Backend.(chaos.BatchWriter); ok {
		errs = bw.WriteColumnsCtx(context.Background(), object, writes)
	} else {
		for i, w := range writes {
			if err := s.cfg.Backend.WriteColumn(w.Node, object, w.Stripe, w.Data); err != nil {
				if errs == nil {
					errs = make([]error, len(writes))
				}
				errs[i] = err
			}
		}
	}
	s.m.write.seconds.Observe(time.Since(t0))
	for i, w := range writes {
		if chaos.ErrAt(errs, i) != nil {
			s.m.write.errors.Inc()
		} else {
			s.m.write.bytes.Add(int64(len(w.Data)))
		}
	}
	return reply{head: encodeWriteBatchResp(len(writes), errs)}
}

// heartbeatLoop maintains the master lease: register (with retry) to
// obtain an incarnation, then heartbeat every period. A heartbeat
// answered "unknown" — the master restarted, or fenced this
// incarnation out as dead after a partition — drops the lease and
// re-registers, arriving as a fresh join under a new incarnation.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	var incarnation uint64
	registered := false
	t := time.NewTicker(s.cfg.Heartbeat)
	defer t.Stop()
	for {
		if !registered {
			inc, err := RegisterNodesAt(s.cfg.Master, s.cfg.Nodes, s.cfg.Advertise, s.cfg.Rack, s.cfg.Zone, s.cfg.Heartbeat)
			if err == nil {
				incarnation = inc
				registered = true
			}
			// On error: fall through and retry next tick.
		} else {
			known, err := SendHeartbeat(s.cfg.Master, incarnation, s.cfg.Heartbeat)
			if err == nil && !known {
				registered = false
				continue // re-register immediately, not a period later
			}
			// Transport errors leave the lease in place; the master's
			// detector decides what silence means.
		}
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}
